package dissem

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/simnet"
)

// shardLinkBatch builds a representative shard-link batch: one origin
// node streaming interactions for a handful of service classes, with
// near-monotonic timestamps, climbing ephemeral ports, and a small set
// of server processes. This is the traffic shape the per-column
// encodings are chosen for, so it doubles as the compression-ratio
// fixture.
func shardLinkBatch(n int) *core.RecordColumns {
	classes := []string{"port:80", "port:443", "port:5432"}
	procs := []string{"httpd", "postgres"}
	cols := core.NewRecordColumns(n)
	for i := 0; i < n; i++ {
		r := core.Record{
			ID:   uint64(1_000_000 + i),
			Node: 3,
			Flow: simnet.FlowKey{
				Src: simnet.Addr{Node: 3, Port: uint16(32768 + i%2000)},
				Dst: simnet.Addr{Node: 7, Port: uint16(80 + 363*(i%3))},
			},
			Class:       classes[i%len(classes)],
			CPU:         uint8(i / 128),
			Start:       time.Duration(i)*50*time.Microsecond + time.Second,
			End:         time.Duration(i)*50*time.Microsecond + time.Second + 300*time.Microsecond,
			ReqPackets:  2 + i%3,
			ReqBytes:    512 + 16*(i%7),
			RespPackets: 4,
			RespBytes:   4096 + 128*(i%5),
			ProtoTime:   40*time.Microsecond + time.Duration(i%9)*time.Microsecond,
			TxTime:      12 * time.Microsecond,
			BufferWait:  time.Duration(i%4) * time.Microsecond,
			SyscallTime: 7 * time.Microsecond,
			UserTime:    90 * time.Microsecond,
			BlockedTime: time.Duration(i%2) * time.Microsecond,
			ServerPID:   int32(4242 + i%len(procs)),
			ServerProc:  procs[i%len(procs)],
			CtxSwitches: uint64(10_000 + 3*i),
			DiskOps:     uint64(i % 2),
		}
		cols.Append(&r)
	}
	return cols
}

// compressedStream hand-assembles def + 0x05 frame the way the broker's
// encodeColumnsFrame does.
func compressedStream(tb testing.TB, cols *core.RecordColumns) []byte {
	tb.Helper()
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		tb.Fatal(err)
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	if plan == nil {
		tb.Fatal("no plan bound for core.Record")
	}
	stream := plan.Format().AppendDef(nil)
	stream, n, err := plan.AppendCompressedColumnsFrame(stream, cols)
	if err != nil {
		tb.Fatal(err)
	}
	if n != cols.Len() {
		tb.Fatalf("frame row count %d, want %d", n, cols.Len())
	}
	return stream
}

// TestCompressedColumnsRoundTrip pins the 0x05 wire format end to end:
// a compressed columnar frame decoded through the bound column decoder
// must reproduce the original batch byte for byte, and a subscriber
// without a column decoder (the record type's own plan) must still
// recover the identical rows.
func TestCompressedColumnsRoundTrip(t *testing.T) {
	const rows = 257 // odd size: exercises run tails and dict runs
	cols := shardLinkBatch(rows)
	want := rowsOf(cols)
	stream := compressedStream(t, cols)

	// Bound-decoder path: the shard-link subscriber's configuration.
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	rec, err := pbio.NewDecoder(bytes.NewReader(stream), reg).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Value.(*core.RecordColumns)
	if !ok {
		t.Fatalf("decoded %T, want *core.RecordColumns", rec.Value)
	}
	if got.Len() != rows {
		t.Fatalf("decoded %d rows, want %d", got.Len(), rows)
	}
	for i, w := range want {
		if r := got.Row(i); r != w {
			t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, r, w)
		}
	}

	// Plan path: the format registered, no column decoder — the frame
	// decodes into one []core.Record of identical rows.
	plainReg := pbio.NewRegistry()
	if _, err := plainReg.Register("sysprof.interaction", core.Record{}); err != nil {
		t.Fatal(err)
	}
	rec, err = pbio.NewDecoder(bytes.NewReader(stream), plainReg).Decode()
	if err != nil {
		t.Fatal(err)
	}
	recs, ok := rec.Value.([]core.Record)
	if !ok || len(recs) != rows {
		t.Fatalf("decoded %T, want %d core.Records", rec.Value, rows)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, recs[i], want[i])
		}
	}
}

// TestCompressedColumnsShrink holds the compression bar: on a
// representative shard-link batch the 0x05 frame must be at least 2x
// smaller than the plain 0x04 columnar frame.
func TestCompressedColumnsShrink(t *testing.T) {
	cols := shardLinkBatch(512)
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	plain, _, err := plan.AppendColumnsFrame(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	compressed, _, err := plan.AppendCompressedColumnsFrame(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(compressed) > len(plain) {
		t.Fatalf("compressed frame %d bytes vs plain %d: shrink %.2fx, want >= 2x",
			len(compressed), len(plain), float64(len(plain))/float64(len(compressed)))
	}
	t.Logf("512-row shard-link batch: plain %d bytes, compressed %d bytes (%.2fx)",
		len(plain), len(compressed), float64(len(plain))/float64(len(compressed)))
}

// TestCompressedNegotiation runs the wire-compression handshake end to
// end: one subscriber requests compressed frames and one dials plain,
// both must decode the same publish to identical batches.
func TestCompressedNegotiation(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	b := pubsub.NewBroker(reg)
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(l)

	newSub := func(compress bool) *pubsub.Subscriber {
		subReg := pbio.NewRegistry()
		if err := RegisterFormats(subReg); err != nil {
			t.Fatal(err)
		}
		sub, err := pubsub.Dialer{Registry: subReg, Compress: compress}.Dial(
			l.Addr().String(), ChannelInteractions)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sub.Close() })
		return sub
	}
	zsub := newSub(true)
	plain := newSub(false)
	deadline := time.Now().Add(2 * time.Second)
	for len(b.Subscribers()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("subscribers never registered")
		}
		time.Sleep(time.Millisecond)
	}
	var sawCompressed, sawPlain bool
	for _, s := range b.Subscribers() {
		if s.Compressed {
			sawCompressed = true
		} else {
			sawPlain = true
		}
	}
	if !sawCompressed || !sawPlain {
		t.Fatalf("negotiation flags not split: %+v", b.Subscribers())
	}

	const rows = 64
	cols := shardLinkBatch(rows)
	want := rowsOf(cols)
	recvBatch := func(sub *pubsub.Subscriber) *core.RecordColumns {
		t.Helper()
		_, rec, err := sub.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := rec.Value.(*core.RecordColumns)
		if !ok {
			t.Fatalf("decoded %T, want *core.RecordColumns", rec.Value)
		}
		if got.Len() != rows {
			t.Fatalf("decoded %d rows, want %d", got.Len(), rows)
		}
		for i, w := range want {
			if r := got.Row(i); r != w {
				t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, r, w)
			}
		}
		return got
	}
	if err := b.PublishColumns(ChannelInteractions, cols); err != nil {
		t.Fatal(err)
	}
	recvBatch(zsub)
	recvBatch(plain)
}

// FuzzDecodeCompressedColumns feeds arbitrary bytes to the decoder with
// the interaction column decoder bound, seeded with well-formed 0x05
// streams plus hostile mutations (truncations, bad encoding tags,
// never-terminating varints, inflated dictionary counts). The decoder
// must never panic and must terminate with an error or clean EOF.
func FuzzDecodeCompressedColumns(f *testing.F) {
	small := compressedStream(f, shardLinkBatch(5))
	f.Add(small)
	f.Add(compressedStream(f, shardLinkBatch(64)))
	f.Add(small[:len(small)-3])   // truncated mid-column
	f.Add(small[:len(small)/2])   // truncated mid-frame
	hostile := bytes.Clone(small) // valid def frame, corrupted columns
	hostile[len(hostile)/2] ^= 0xFF
	f.Add(hostile)
	// A varint that never terminates: ten continuation bytes.
	f.Add(append(bytes.Clone(small), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))

	// Length boundaries. The 0x05 frame's row count lives
	// right after the def frame: [kind][format id u32][rows u32]. Patch
	// hostile counts into the valid stream: MaxColumnReserve cap-1/cap/
	// cap+1 (the decoder's preallocation clamp), and maxBatchLen at and
	// one past the guard — the frame claims rows the columns never
	// deliver, so the decoder must error out, not allocate for them.
	defLen := func() int {
		reg := pbio.NewRegistry()
		if err := RegisterFormats(reg); err != nil {
			f.Fatal(err)
		}
		plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
		return len(plan.Format().AppendDef(nil))
	}()
	patchRows := func(rows uint32) []byte {
		s := bytes.Clone(small)
		binary.LittleEndian.PutUint32(s[defLen+5:defLen+9], rows)
		return s
	}
	f.Add(patchRows(pbio.MaxColumnReserve - 1))
	f.Add(patchRows(pbio.MaxColumnReserve))
	f.Add(patchRows(pbio.MaxColumnReserve + 1))
	f.Add(patchRows(1 << 20))     // maxBatchLen: passes the guard, starves
	f.Add(patchRows(1<<20 + 1))   // maxBatchLen+1: rejected outright
	f.Add(patchRows(0xFFFF_FFFF)) // uint32 max
	// A maximal *terminated* varint (nine continuation bytes + 0x01 =
	// 2^63) where the column stream expects a count.
	f.Add(append(bytes.Clone(small), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := pbio.NewRegistry()
		if err := RegisterFormats(reg); err != nil {
			t.Fatal(err)
		}
		dec := pbio.NewDecoder(bytes.NewReader(data), reg)
		for i := 0; i < 1<<16; i++ {
			if _, err := dec.Decode(); err != nil {
				return
			}
		}
	})
}

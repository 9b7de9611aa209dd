package dissem

import (
	"crypto/sha256"
	"encoding/hex"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/simnet"
)

func testColumnsBatch(n int) *core.RecordColumns {
	cols := core.NewRecordColumns(n)
	for i := 0; i < n; i++ {
		r := core.Record{
			ID:   uint64(i + 1),
			Node: 1,
			Flow: simnet.FlowKey{
				Src: simnet.Addr{Node: 1, Port: uint16(1000 + i)},
				Dst: simnet.Addr{Node: 2, Port: 80},
			},
			Class:      "port:80",
			CPU:        uint8(i % 4),
			Start:      time.Duration(i) * time.Millisecond,
			End:        time.Duration(i+1) * time.Millisecond,
			BufferWait: time.Duration(i) * time.Microsecond,
			ServerPID:  int32(100 + i),
			ServerProc: "httpd",
			DiskOps:    uint64(i),
		}
		cols.Append(&r)
	}
	return cols
}

// TestInteractionFramesGolden pins the interaction wire format byte for
// byte: the field kinds and order of "sysprof.interaction" and the full
// 0x04 and 0x05 frames of fixed batches, captured when the format was
// still declared by a hand-flattened twin struct. Deriving the format
// from core.Record may rename fields in the once-per-connection
// definition frame; it must never move a byte of a data frame.
func TestInteractionFramesGolden(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	const wantKinds = "uint64 uint16 uint16 uint16 uint16 uint16 string uint8 duration duration " +
		"int64 int64 int64 int64 duration duration duration duration duration duration " +
		"int32 string uint64 uint64"
	var kinds []string
	for _, f := range plan.Format().Fields {
		kinds = append(kinds, f.Kind.String())
	}
	if got := strings.Join(kinds, " "); got != wantKinds {
		t.Fatalf("interaction field kinds:\n got %s\nwant %s", got, wantKinds)
	}

	const (
		plain2 = "040100000002000000010000000000000002000000000000000100010001000100e803e903020002005000500007000000706f72743a383007000000706f72743a38300001000000000000000040420f000000000040420f000000000080841e00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000e80300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000064000000650000000500000068747470640500000068747470640000000000000000000000000000000000000000000000000100000000000000"
		z2     = "05010000000200000001020202020102020101d00f0202020201a00100030107000000706f72743a383002000201000101010080897a0180897a80897a0100000100000100000100000100000100000100d00f010000010000010000020164016503010500000068747470640200010000010002"
		// sha256 of the frames of shardLinkBatch(64): every encoding
		// (delta, RLE, dict, raw) over a realistic batch.
		plain64 = "66e180a1764631355e6a804ab6a31ecfc8989be50f6e579e893adf412ed916f0"
		z64     = "559d8bf529b28bd79935421e8107adfe4104baeda3518fce69628f863921906c"
	)
	small := testColumnsBatch(2)
	if got, _, err := plan.AppendColumnsFrame(nil, small); err != nil || hex.EncodeToString(got) != plain2 {
		t.Fatalf("0x04 frame of the 2-row batch changed (err %v):\n got %x\nwant %s", err, got, plain2)
	}
	if got, _, err := plan.AppendCompressedColumnsFrame(nil, small); err != nil || hex.EncodeToString(got) != z2 {
		t.Fatalf("0x05 frame of the 2-row batch changed (err %v):\n got %x\nwant %s", err, got, z2)
	}
	big := shardLinkBatch(64)
	sum := func(b []byte, _ int, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	if got := sum(plan.AppendColumnsFrame(nil, big)); got != plain64 {
		t.Fatalf("0x04 frame of the 64-row batch hashes to %s, want %s", got, plain64)
	}
	if got := sum(plan.AppendCompressedColumnsFrame(nil, big)); got != z64 {
		t.Fatalf("0x05 frame of the 64-row batch hashes to %s, want %s", got, z64)
	}
}

// TestColumnarRoundTrip publishes one columnar batch to a plain Dial:
// it arrives as one 0x04 frame and decodes back into a
// *core.RecordColumns batch.
func TestColumnarRoundTrip(t *testing.T) {
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

	subReg := pbio.NewRegistry()
	if err := RegisterFormats(subReg); err != nil {
		t.Fatal(err)
	}
	sub, err := pubsub.Dial(l.Addr().String(), subReg, ChannelInteractions)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(b.Subscribers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	const rows = 5
	cols := testColumnsBatch(rows)
	want := rowsOf(cols)
	if err := b.PublishColumns(ChannelInteractions, cols); err != nil {
		t.Fatal(err)
	}
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
}

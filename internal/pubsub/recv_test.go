package pubsub

import (
	"fmt"
	"net"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// recvRows is a batch of n rows of every column kind, told apart from
// another call's rows by base: IDs, flows, times and strings all differ.
func recvRows(base, n int) *core.RecordColumns {
	cols := core.NewRecordColumns(n)
	for i := 0; i < n; i++ {
		id := uint64(base + i)
		cols.Append(&core.Record{
			ID:   id,
			Node: simnet.NodeID(1 + i%3),
			Flow: simnet.FlowKey{
				Src: simnet.Addr{Node: simnet.NodeID(1 + i%3), Port: uint16(base + i)},
				Dst: simnet.Addr{Node: 9, Port: 80},
			},
			Class:      fmt.Sprintf("class-%d-%d", base, i%5),
			CPU:        uint8(i % 4),
			Start:      time.Duration(id) * time.Microsecond,
			End:        time.Duration(id+7) * time.Microsecond,
			ReqBytes:   100 + i,
			ServerPID:  int32(base),
			ServerProc: fmt.Sprintf("proc-%d", base),
			DiskOps:    id % 3,
		})
	}
	return cols
}

// TestRecvRecyclesBatch: every Recv decodes into the Subscriber's one
// batch, reset first, so a small frame after a large one holds exactly
// its own rows — no row, flow or string of the earlier frame left in any
// column.
func TestRecvRecyclesBatch(t *testing.T) {
	b, addr := shardedHarness(t)
	sub, err := Dial(addr, b.reg, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for deadline := time.Now().Add(2 * time.Second); len(b.Subscribers()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("remote subscriber never registered")
		}
	}

	var first *core.RecordColumns
	for _, want := range []*core.RecordColumns{recvRows(1000, 512), recvRows(5000, 8)} {
		if err := b.PublishColumns("m", want); err != nil {
			t.Fatal(err)
		}
		_, rec, err := sub.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := rec.Value.(*core.RecordColumns)
		if !ok {
			t.Fatalf("received %T, want *core.RecordColumns", rec.Value)
		}
		if first == nil {
			first = got
		} else if got != first {
			t.Fatal("the second Recv decoded into a new batch")
		}
		n := want.Len()
		if err := got.CheckRows(n); err != nil {
			t.Fatalf("%d-row frame: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if got.Row(i) != want.Row(i) {
				t.Fatalf("%d-row frame, row %d:\n got %+v\nwant %+v", n, i, got.Row(i), want.Row(i))
			}
		}
	}
}

// wireStream is what a broker writes a plain-frame subscriber for these
// batches, one frame each on channel: the channel header, the format's
// definition before the first frame, the 0x04 frame.
func wireStream(t testing.TB, reg *pbio.Registry, channel string, batches ...*core.RecordColumns) []byte {
	t.Helper()
	var buf []byte
	for i, cols := range batches {
		plan, c := cols.Columns(reg)
		buf = appendString(buf, channel)
		if i == 0 {
			buf = plan.Format().AppendDef(buf)
		}
		var err error
		if buf, _, err = plan.AppendColumnsFrame(buf, c); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// scriptedBroker accepts one subscriber on a loopback port, reads its
// handshake and writes it the stream. It returns the address to dial; the
// test closes its subscriber before it ends, which ends the write.
func scriptedBroker(t *testing.T, stream []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readHandshake(conn); err == nil {
			conn.Write(stream) // fails if the subscriber closes first
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

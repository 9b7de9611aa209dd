//go:build !race

package pubsub

import (
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/core"
)

var (
	sinkBool  bool
	sinkZ     []*remoteConn
	sinkPlain []*remoteConn
)

// TestFanOutAllocs guards the publish path's per-frame bookkeeping: the
// frame release (last and shared reference), each arm of the full-queue
// decision (no delivery yet, the per-channel floor, the connection-wide
// fallback), and the fan-out set's compression cut and shard
// check allocate nothing. The race detector instruments allocations, so
// the guard is built out under -race; CI runs it in a separate step
// without.
func TestFanOutAllocs(t *testing.T) {
	const timeout = 25 * time.Millisecond
	var fresh, drained DrainEstimate
	for i := 0; i < 16; i++ {
		drained.Note("interactions", int64(1750*time.Microsecond))
	}
	remotes := []*remoteConn{
		{columnsZ: true},
		{columnsZ: true, sel: core.ShardSelector{Index: 11, Count: 16}},
		{columnsZ: false},
	}
	unsharded := remotes[:1]
	shared := new(frame)

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"release-last-reference", func() {
			f := framePool.Get().(*frame)
			atomic.StoreInt64(&f.refs, 1)
			f.release()
		}},
		{"release-shared-reference", func() {
			atomic.StoreInt64(&shared.refs, 3)
			shared.release()
		}},
		{"block-no-delivery", func() { sinkBool = fresh.ShouldBlock(timeout, "interactions") }},
		{"block-per-channel", func() { sinkBool = drained.ShouldBlock(timeout, "interactions") }},
		{"block-connection-fallback", func() { sinkBool = drained.ShouldBlock(timeout, "unseen") }},
		{"split-by-compression", func() { sinkZ, sinkPlain = splitByCompression(remotes) }},
		{"has-sharded", func() { sinkBool = hasSharded(remotes) }},
		{"has-sharded-none", func() { sinkBool = hasSharded(unsharded) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, allocs)
		}
	}
	if !drained.ShouldBlock(timeout, "interactions") {
		t.Fatal("fast-draining channel sheds, want block")
	}
	if !drained.ShouldBlock(timeout, "unseen") {
		t.Fatal("unseen channel on a fast-draining connection sheds, want block")
	}
	if fresh.ShouldBlock(timeout, "interactions") {
		t.Fatal("undelivered connection blocks, want shed")
	}
}

// TestSubscriberRecvAllocs pins what one Recv of a plain interaction
// frame costs over loopback once its strings are interned and the
// Subscriber's batch has grown: the same for 64 rows as for 512, so
// nothing is paid per row. The one allocation is the frame's
// *pbio.Record.
func TestSubscriberRecvAllocs(t *testing.T) {
	const runs = 8
	reg := newReg(t)
	small, large := recvRows(0, 64), recvRows(0, 512)
	batches := []*core.RecordColumns{small}
	for i := 0; i <= runs; i++ {
		batches = append(batches, small)
	}
	for i := 0; i <= runs; i++ {
		batches = append(batches, large)
	}
	sub, err := Dial(scriptedBroker(t, wireStream(t, reg, "interactions", batches...)), reg, "interactions")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if _, _, err := sub.Recv(); err != nil { // the definition, and the strings
		t.Fatal(err)
	}
	for _, rows := range []int{64, 512} {
		allocs := testing.AllocsPerRun(runs, func() {
			_, rec, err := sub.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if n := rec.Value.(*core.RecordColumns).Len(); n != rows {
				t.Fatalf("received %d rows, want %d", n, rows)
			}
		})
		if allocs != 1 {
			t.Errorf("Recv of a %d-row frame: %.2f allocations, want 1", rows, allocs)
		}
	}
}

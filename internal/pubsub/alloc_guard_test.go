//go:build !race

package pubsub

import (
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/core"
)

var (
	sinkBool   bool
	sinkPolicy OverflowPolicy
	sinkZ      []*remoteConn
	sinkPlain  []*remoteConn
)

// TestFanOutAllocs guards the publish path's per-frame bookkeeping: the
// frame release (last and shared reference), each arm of the Adaptive
// policy resolution, and the fan-out set's compression cut and shard
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
		{"resolve-not-adaptive", func() { sinkPolicy = drained.Resolve(BlockWithDeadline, timeout, "interactions") }},
		{"resolve-per-channel", func() { sinkPolicy = drained.Resolve(Adaptive, timeout, "interactions") }},
		{"resolve-fallback", func() { sinkPolicy = fresh.Resolve(Adaptive, timeout, "interactions") }},
		{"split-by-compression", func() { sinkZ, sinkPlain = splitByCompression(remotes) }},
		{"has-sharded", func() { sinkBool = hasSharded(remotes) }},
		{"has-sharded-none", func() { sinkBool = hasSharded(unsharded) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, allocs)
		}
	}
	if got := drained.Resolve(Adaptive, timeout, "interactions"); got != BlockWithDeadline {
		t.Fatalf("fast-draining channel resolved to %v, want BlockWithDeadline", got)
	}
	if got := fresh.Resolve(Adaptive, timeout, "interactions"); got != DropOldest {
		t.Fatalf("undelivered connection resolved to %v, want DropOldest", got)
	}
}

//go:build !race

package simnet

import "testing"

var sinkHash uint64

// TestShardHashAllocs guards the shard keys every flow router computes
// per row: both allocate nothing. The race detector instruments
// allocations, so the guard is built out under -race; CI runs it in a
// separate step without.
func TestShardHashAllocs(t *testing.T) {
	flow := FlowKey{Src: Addr{Node: 2042, Port: 43210}, Dst: Addr{Node: 1017, Port: 8080}}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"flow-shard-hash", func() { sinkHash = flow.ShardHash() }},
		{"node-shard-hash", func() { sinkHash = NodeShardHash(1017) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, allocs)
		}
	}
}

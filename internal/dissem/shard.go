package dissem

import "sysprof/internal/simnet"

// ShardKey is the pubsub.ShardKeyFunc for SysProf dissemination traffic
// that travels as rows: flow-less aggregate deltas key on the node hash,
// matching the GPA's shardForNode routing. (Interaction records never
// pass through it — they are published as columns, and the broker hashes
// the Flow column directly with the same simnet.FlowKey.ShardHash.)
// Unknown types report ok=false and are broadcast by the broker.
//
//sysprof:nonblocking
func ShardKey(rec any) (uint64, bool) {
	switch v := rec.(type) {
	case WireAggregate:
		return simnet.NodeShardHash(v.Node), true
	case *WireAggregate:
		return simnet.NodeShardHash(v.Node), true
	}
	return 0, false
}

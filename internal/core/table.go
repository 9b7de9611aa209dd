package core

import "sysprof/internal/simnet"

// flowState is the per-flow interaction state machine.
type flowState struct {
	key  simnet.FlowKey // canonical key
	hash uint64         // cached Hash(key): probing and rehash never re-hash
	// reqDir is the request direction, fixed by the first packet seen.
	reqDir simnet.FlowKey
	// cur is the in-progress interaction, recycled from one interaction
	// to the next; its phase is zero while the flow is idle.
	cur open
	// lastRxAt, lastSendAt, lastTxAt support proto/tx time computation.
	// -1 means "never seen" (0 is a valid simulation timestamp).
	lastRxAt   int64
	lastSendAt int64
	lastTxAt   int64
}

func newFlowState(ck simnet.FlowKey) *flowState {
	return &flowState{key: ck, lastRxAt: -1, lastSendAt: -1, lastTxAt: -1}
}

// open is an interaction under construction.
type open struct {
	rec      Record
	phase    phase
	lastTxAt int64 // last outbound wire event (becomes End)
}

type phase uint8

const (
	phaseIdle phase = iota
	phaseRequest
	phaseResponse
)

// FlowTable indexes per-flow state by flow key. Two implementations exist
// so the "efficient event hashing" design choice can be ablated: the
// hashed table the paper uses, and a naive linear scan.
type FlowTable interface {
	// Get returns the state for the flow, creating it if absent.
	Get(key simnet.FlowKey) *flowState
	// Delete removes the flow's state, reporting whether it existed.
	// Must not be called while an Each visit is in progress.
	Delete(key simnet.FlowKey) bool
	// Len returns the number of tracked flows.
	Len() int
	// Each visits every flow state.
	Each(fn func(*flowState))
}

// hashedTable is an open-addressing hash table with linear probing — the
// paper's "efficient event hashing" without per-flow chain allocations.
// Lookups walk a contiguous run of slots from the key's home position, so
// the common hit touches one or two cache lines instead of chasing a
// bucket chain. Deletion uses backward-shift compaction rather than
// tombstones, so a table that expires idle flows never rots: every probe
// run stays exactly as long as its live entries require.
type hashedTable struct {
	slots []*flowState
	mask  uint64
	n     int
}

// maxLoadPercent is the occupancy that triggers a doubling. 75% keeps
// linear-probe runs short (expected O(1)) while wasting at most a third
// of the slot array.
const maxLoadPercent = 75

// NewHashedTable returns a FlowTable with 2^sizeLog2 slots.
func NewHashedTable(sizeLog2 int) FlowTable {
	if sizeLog2 < 2 {
		sizeLog2 = 2
	}
	size := 1 << sizeLog2
	return &hashedTable{slots: make([]*flowState, size), mask: uint64(size - 1)}
}

// Get returns the state for the flow, inserting a fresh one on miss.
//
//sysprof:nonblocking
func (t *hashedTable) Get(key simnet.FlowKey) *flowState {
	ck := key.Canonical()
	h := ck.Hash()
	i := h & t.mask
	for {
		fs := t.slots[i]
		if fs == nil {
			break
		}
		if fs.hash == h && fs.key == ck {
			return fs
		}
		i = (i + 1) & t.mask
	}
	fs := newFlowState(ck)
	fs.hash = h
	if (t.n+1)*100 > len(t.slots)*maxLoadPercent {
		t.grow()
		i = h & t.mask
		for t.slots[i] != nil {
			i = (i + 1) & t.mask
		}
	}
	t.slots[i] = fs
	t.n++
	return fs
}

// Delete removes the flow from the table using backward-shift compaction:
// every entry in the probe run after the victim whose home position lies
// at or before the emptied slot moves back into it, so no tombstone is
// left behind and later probe runs stay minimal.
func (t *hashedTable) Delete(key simnet.FlowKey) bool {
	ck := key.Canonical()
	h := ck.Hash()
	i := h & t.mask
	for {
		fs := t.slots[i]
		if fs == nil {
			return false
		}
		if fs.hash == h && fs.key == ck {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	j := i
	for {
		t.slots[i] = nil
		for {
			j = (j + 1) & t.mask
			fs := t.slots[j]
			if fs == nil {
				return true
			}
			// fs may move into the hole iff the hole lies within fs's probe
			// run, i.e. its home position is cyclically outside (i, j].
			home := fs.hash & t.mask
			if ((j - home) & t.mask) >= ((j - i) & t.mask) {
				t.slots[i] = fs
				i = j
				break
			}
		}
	}
}

// grow doubles the slot array and reinserts every entry. Hashes are
// cached in the flowState, so redistribution never re-hashes a key — it
// is a pointer move per flow.
func (t *hashedTable) grow() {
	slots := make([]*flowState, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	for _, fs := range t.slots {
		if fs == nil {
			continue
		}
		i := fs.hash & mask
		for slots[i] != nil {
			i = (i + 1) & mask
		}
		slots[i] = fs
	}
	t.slots = slots
	t.mask = mask
}

func (t *hashedTable) Len() int { return t.n }

func (t *hashedTable) Each(fn func(*flowState)) {
	for _, fs := range t.slots {
		if fs != nil {
			fn(fs)
		}
	}
}

// linearTable is the ablation baseline: a linear scan over all flows.
type linearTable struct {
	flows []*flowState
}

// NewLinearTable returns the O(n)-lookup flow table used by the hashing
// ablation benchmark.
func NewLinearTable() FlowTable { return &linearTable{} }

func (t *linearTable) Get(key simnet.FlowKey) *flowState {
	ck := key.Canonical()
	for _, fs := range t.flows {
		if fs.key == ck {
			return fs
		}
	}
	fs := newFlowState(ck)
	t.flows = append(t.flows, fs)
	return fs
}

func (t *linearTable) Delete(key simnet.FlowKey) bool {
	ck := key.Canonical()
	for i, fs := range t.flows {
		if fs.key == ck {
			last := len(t.flows) - 1
			t.flows[i] = t.flows[last]
			t.flows[last] = nil
			t.flows = t.flows[:last]
			return true
		}
	}
	return false
}

func (t *linearTable) Len() int { return len(t.flows) }

func (t *linearTable) Each(fn func(*flowState)) {
	for _, fs := range t.flows {
		fn(fs)
	}
}

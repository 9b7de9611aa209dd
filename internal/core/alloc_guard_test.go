//go:build !race

package core

import (
	"testing"
	"time"

	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
)

var (
	sinkBool   bool
	sinkRecord Record
)

// keepServer is a Keep predicate that reads the row it is handed.
func keepServer(row any) bool { return row.(*Record).Node == 1017 }

// TestRowPathAllocs guards the LPA side of the "nearly free" claim: the
// shard match, the record ↔ columns moves, a filtered copy of a batch
// and every path through a per-CPU buffer push allocate nothing once the columns have their
// capacity. Append's amortised Grow runs in AllocsPerRun's own warm-up
// call, outside the measured ones. Values are multi-digit on purpose: Go
// boxes integers below 256 without allocating. The race detector
// instruments allocations, so the guard is built out under -race; CI runs
// it in a separate step without.
func TestRowPathAllocs(t *testing.T) {
	rec := Record{
		ID: 9876543210, Node: 1017, CPU: 3, Class: "port:8080",
		Flow:  simnet.FlowKey{Src: simnet.Addr{Node: 2042, Port: 43210}, Dst: simnet.Addr{Node: 1017, Port: 8080}},
		Start: 1500 * time.Millisecond, End: 1512 * time.Millisecond,
		ReqPackets: 12, ReqBytes: 16384, RespPackets: 48, RespBytes: 65536,
		ProtoTime: 35 * time.Microsecond, TxTime: 41 * time.Microsecond,
		BufferWait: 2 * time.Millisecond, SyscallTime: 180 * time.Microsecond,
		UserTime: 7 * time.Millisecond, BlockedTime: 3 * time.Millisecond,
		ServerPID: 12345, ServerProc: "httpd", CtxSwitches: 1234, DiskOps: 567,
	}
	sharded := ShardSelector{Index: 5, Count: 16}
	key := rec.Flow.ShardHash()

	grown := &RecordColumns{} // no capacity: the warm-up call grows it
	filled := NewRecordColumns(1)
	filled.Append(&rec)
	var dst Record

	stalled := NewDoubleBuffer(1, func(*RecordColumns, func()) {}) // never released
	stalled.SetSingleBuffered(true)
	stalled.Push(&rec) // the only buffer is now out: every later push drops
	roomy := NewDoubleBuffer(4096, nil)
	drained := 0
	swapping := NewDoubleBuffer(1, func(batch *RecordColumns, release func()) {
		drained += batch.Len()
		release()
	})

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"match-unsharded", func() { sinkBool = ShardSelector{}.Match(key) }},
		{"match-sharded", func() { sinkBool = sharded.Match(key) }},
		{"append-row", func() { grown.Reset(); grown.Append(&rec) }},
		{"row", func() { sinkRecord = filled.Row(0) }},
		{"copy-row", func() { filled.CopyRow(&dst, 0) }},
		{"keep", func() { filled.Keep(keepServer).Release() }},
		{"push-single-buffer-drop", func() { stalled.Push(&rec) }},
		{"push-below-capacity", func() { roomy.Push(&rec) }},
		{"push-flush", func() { swapping.Push(&rec) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, allocs)
		}
	}
	if dst != rec || sinkRecord != rec {
		t.Fatalf("row round trip lost fields: Row %+v, CopyRow %+v", sinkRecord, dst)
	}
	if drops, _ := stalled.Stats(); drops != 101 {
		t.Fatalf("single buffer dropped %d records, want 101", drops)
	}
	if roomy.Len() != 101 || drained != 101 {
		t.Fatalf("roomy buffer holds %d records and the swapping one drained %d, want 101 each", roomy.Len(), drained)
	}
}

// TestLPAHandleAllocs guards the analyzer fast path: a steady-state
// interaction through every arm of LPA.handle, closed by the next
// request, allocates nothing at either granularity, window eviction and
// buffer swaps included. Only a hooked LPA (Config.OnComplete) allocates,
// the record it hands the hook.
func TestLPAHandleAllocs(t *testing.T) {
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 1017, Port: 43210}, Dst: simnet.Addr{Node: 2042, Port: 8080}}
	for _, g := range []Granularity{PerInteraction, PerClass} {
		lpa := NewLPA(kprof.NewHub(2042, func() time.Duration { return 0 }), Config{Granularity: g, WindowSize: 2, BufferCapacity: 4})
		evs := interactionEvents(flow, 4321)
		if allocs := testing.AllocsPerRun(100, func() {
			for i := range evs {
				lpa.handle(&evs[i])
			}
		}); allocs != 0 {
			t.Errorf("granularity %d: %.2f allocs per interaction, want 0", g, allocs)
		}
		if st := lpa.Stats(); st.Events != 101*uint64(len(evs)) || st.Interactions != 100 || st.DroppedEpisodes != 0 {
			t.Fatalf("granularity %d: stats %+v, want 100 interactions of %d events and no dropped episodes", g, st, len(evs))
		}
	}
}

// TestCPAHandleAllocs: a CPA run reads the event through typed getters —
// no per-event binding map, no boxed field values — hands emit its
// computed payload unboxed, and handle discards the result, which Exec
// leaves unboxed, so nothing is left to allocate. Each run is nine
// ordinary residences and one outlier past twice their mean, which
// captureCPASource emits, far past the small integers Go boxes for free.
func TestCPAHandleAllocs(t *testing.T) {
	var emits int
	var last ecode.Arg
	cpa, ev := captureCPA(t, func(ch string, v ecode.Arg) { emits, last = emits+1, v })
	evs := make([]kprof.Event, 10)
	for i := range evs {
		evs[i] = *ev
		evs[i].Aux = 1000 + int64(i)
	}
	evs[9].Aux = 1_000_000
	if avg := testing.AllocsPerRun(1000, func() {
		for i := range evs {
			cpa.handle(&evs[i])
		}
	}); avg != 0 {
		t.Errorf("CPA.handle allocates %.2f per 10 events, want 0", avg)
	}
	if runs, errs, err := cpa.Stats(); runs != 10010 || errs != 0 {
		t.Errorf("runs=%d errs=%d err=%v, want 10010 runs and no errors", runs, errs, err)
	}
	if emits != 1001 || last != (ecode.Arg{T: ecode.TInt, Int: 1_000_000}) {
		t.Errorf("sink saw %d emits, the last %+v; want 1001, each the outlier", emits, last)
	}
}

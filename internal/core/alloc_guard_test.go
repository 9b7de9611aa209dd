//go:build !race

package core

import (
	"testing"
	"time"

	"sysprof/internal/simnet"
)

var (
	sinkBool   bool
	sinkRecord Record
)

// TestRowPathAllocs guards the LPA side of the "nearly free" claim: the
// shard match, the record ↔ columns moves and every path through a
// per-CPU buffer push allocate nothing once the columns have their
// capacity. AppendRow's amortised Grow runs in AllocsPerRun's own warm-up
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
	filled.AppendRow(rec)
	var dst Record

	stalled := NewDoubleBuffer(1, func(*RecordColumns, func()) {}) // never released
	stalled.SetSingleBuffered(true)
	stalled.Push(rec) // the only buffer is now out: every later push drops
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
		{"append-row", func() { grown.Reset(); grown.AppendRow(rec) }},
		{"row", func() { sinkRecord = filled.Row(0) }},
		{"copy-row", func() { filled.CopyRow(&dst, 0) }},
		{"push-single-buffer-drop", func() { stalled.Push(rec) }},
		{"push-below-capacity", func() { roomy.Push(rec) }},
		{"push-flush", func() { swapping.Push(rec) }},
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

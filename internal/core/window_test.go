package core

import (
	"testing"
	"testing/quick"
	"time"
)

func rec(id uint64, end time.Duration) *Record {
	return &Record{ID: id, End: end}
}

func TestWindowAddAndSnapshot(t *testing.T) {
	var evicted []uint64
	w := NewWindow(3, func(r *Record) { evicted = append(evicted, r.ID) })
	for i := uint64(1); i <= 5; i++ {
		w.Add(rec(i, time.Duration(i)))
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	snap := w.Snapshot()
	want := []uint64{3, 4, 5}
	for i, r := range snap {
		if r.ID != want[i] {
			t.Fatalf("snapshot = %v, want IDs %v", snap, want)
		}
	}
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted = %v, want [1 2] oldest-first", evicted)
	}
}

func TestWindowResizeShrinkEvictsOldest(t *testing.T) {
	var evicted []uint64
	w := NewWindow(4, func(r *Record) { evicted = append(evicted, r.ID) })
	for i := uint64(1); i <= 4; i++ {
		w.Add(rec(i, 0))
	}
	w.Resize(2)
	if w.Len() != 2 || w.Size() != 2 {
		t.Fatalf("after shrink: len=%d size=%d", w.Len(), w.Size())
	}
	if len(evicted) != 2 || evicted[0] != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
	snap := w.Snapshot()
	if snap[0].ID != 3 || snap[1].ID != 4 {
		t.Fatalf("snapshot after shrink = %v", snap)
	}
}

func TestWindowResizeGrow(t *testing.T) {
	w := NewWindow(2, nil)
	w.Add(rec(1, 0))
	w.Add(rec(2, 0))
	w.Resize(5)
	w.Add(rec(3, 0))
	snap := w.Snapshot()
	if len(snap) != 3 || snap[0].ID != 1 || snap[2].ID != 3 {
		t.Fatalf("snapshot after grow = %v", snap)
	}
}

func TestWindowEvictOlderThan(t *testing.T) {
	var evicted []uint64
	w := NewWindow(10, func(r *Record) { evicted = append(evicted, r.ID) })
	for i := uint64(1); i <= 5; i++ {
		w.Add(rec(i, time.Duration(i)*time.Second))
	}
	w.EvictOlderThan(3 * time.Second)
	if len(evicted) != 2 {
		t.Fatalf("evicted %v, want 2 records older than 3s", evicted)
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d after age eviction", w.Len())
	}
}

func TestWindowEvictAll(t *testing.T) {
	n := 0
	w := NewWindow(4, func(*Record) { n++ })
	for i := uint64(1); i <= 3; i++ {
		w.Add(rec(i, 0))
	}
	w.EvictAll()
	if n != 3 || w.Len() != 0 {
		t.Fatalf("evicted=%d len=%d", n, w.Len())
	}
}

func TestWindowMinSize(t *testing.T) {
	w := NewWindow(0, nil)
	if w.Size() != 1 {
		t.Fatalf("size = %d, want clamped to 1", w.Size())
	}
	w.Resize(-3)
	if w.Size() != 1 {
		t.Fatal("Resize accepted non-positive size")
	}
}

// Eviction must behave identically when the live region wraps around the
// end of the ring (head < start).
func TestWindowEvictOlderThanWrapped(t *testing.T) {
	var evicted []uint64
	w := NewWindow(5, func(r *Record) { evicted = append(evicted, r.ID) })
	// Fill past capacity so the live region wraps: after 8 adds to a
	// 5-slot ring, records 4..8 live at indices 3,4,0,1,2.
	for i := uint64(1); i <= 8; i++ {
		w.Add(rec(i, time.Duration(i)*time.Second))
	}
	evicted = nil
	w.EvictOlderThan(7 * time.Second) // evicts 4,5,6 — keeps 7,8
	if len(evicted) != 3 || evicted[0] != 4 || evicted[2] != 6 {
		t.Fatalf("evicted = %v, want [4 5 6]", evicted)
	}
	snap := w.Snapshot()
	if len(snap) != 2 || snap[0].ID != 7 || snap[1].ID != 8 {
		t.Fatalf("snapshot = %v, want IDs [7 8]", snap)
	}
	// The window keeps working after in-place compaction.
	w.Add(rec(9, 9*time.Second))
	snap = w.Snapshot()
	if len(snap) != 3 || snap[2].ID != 9 {
		t.Fatalf("snapshot after re-add = %v", snap)
	}
}

func TestWindowEvictOlderThanZeroAlloc(t *testing.T) {
	w := NewWindow(256, func(*Record) {})
	allocs := testing.AllocsPerRun(100, func() {
		var r Record
		for i := uint64(1); i <= 200; i++ {
			r.ID, r.End = i, time.Duration(i)
			w.Add(&r)
		}
		w.EvictOlderThan(time.Duration(201))
	})
	if allocs != 0 {
		t.Fatalf("EvictOlderThan allocates %.1f per run, want 0", allocs)
	}
}

func TestWindowResizeSameSizeNoOp(t *testing.T) {
	evictions := 0
	w := NewWindow(4, func(*Record) { evictions++ })
	for i := uint64(1); i <= 4; i++ {
		w.Add(rec(i, 0))
	}
	before := &w.ring[0]
	w.Resize(4)
	if &w.ring[0] != before {
		t.Fatal("Resize to the same size reallocated the ring")
	}
	if evictions != 0 || w.Len() != 4 {
		t.Fatalf("same-size Resize evicted %d records, len=%d", evictions, w.Len())
	}
}

// Property: the window never exceeds its size, evictions are oldest-first,
// and every added record is either in the snapshot or was evicted.
func TestWindowConservationProperty(t *testing.T) {
	prop := func(ids []uint8, size uint8) bool {
		s := int(size%16) + 1
		var evicted []uint64
		w := NewWindow(s, func(r *Record) { evicted = append(evicted, r.ID) })
		for i, id := range ids {
			_ = id
			w.Add(rec(uint64(i+1), 0))
			if w.Len() > s {
				return false
			}
		}
		total := len(evicted) + w.Len()
		if total != len(ids) {
			return false
		}
		for i := 1; i < len(evicted); i++ {
			if evicted[i] <= evicted[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"testing"
	"testing/quick"
)

func TestDoubleBufferFillAndDrain(t *testing.T) {
	var batches [][]uint64
	var release func()
	b := NewDoubleBuffer(3, func(batch *RecordColumns, rel func()) {
		ids := make([]uint64, batch.Len())
		copy(ids, batch.IDs)
		batches = append(batches, ids)
		release = rel
	})
	for i := uint64(1); i <= 3; i++ {
		b.Push(&Record{ID: i})
	}
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batches = %v, want one full batch", batches)
	}
	// The standby buffer keeps accepting while the batch is outstanding.
	b.Push(&Record{ID: 4})
	if b.Len() != 1 {
		t.Fatalf("active len = %d, want 1", b.Len())
	}
	release()
	b.Push(&Record{ID: 5})
	b.Push(&Record{ID: 6})
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want second swap after release", len(batches))
	}
	if drops, switches := b.Stats(); drops != 0 || switches != 2 {
		t.Fatalf("stats drops=%d switches=%d", drops, switches)
	}
}

func TestDoubleBufferOverrunDrops(t *testing.T) {
	b := NewDoubleBuffer(2, func(batch *RecordColumns, rel func()) {
		// Daemon never releases: simulates a slow consumer.
	})
	for i := uint64(1); i <= 6; i++ {
		b.Push(&Record{ID: i})
	}
	drops, _ := b.Stats()
	// First 2 fill and swap out; every later fill is lost because the
	// first batch was never released.
	if drops != 4 {
		t.Fatalf("drops = %d, want 4", drops)
	}
}

func TestSingleBufferAblationDropsDuringDrain(t *testing.T) {
	var release func()
	b := NewDoubleBuffer(2, func(batch *RecordColumns, rel func()) { release = rel })
	b.SetSingleBuffered(true)
	b.Push(&Record{ID: 1})
	b.Push(&Record{ID: 2}) // fills, drain starts
	b.Push(&Record{ID: 3}) // dropped: no standby in single mode
	b.Push(&Record{ID: 4}) // dropped
	if drops, _ := b.Stats(); drops != 2 {
		t.Fatalf("drops = %d, want 2 in single-buffer mode", drops)
	}
	release()
	b.Push(&Record{ID: 5})
	if drops, _ := b.Stats(); drops != 2 {
		t.Fatal("push after release should not drop")
	}
}

func TestDoubleBufferExplicitFlush(t *testing.T) {
	var got int
	b := NewDoubleBuffer(100, func(batch *RecordColumns, rel func()) {
		got = batch.Len()
		rel()
	})
	b.Flush() // empty: no callback
	if got != 0 {
		t.Fatal("empty flush invoked callback")
	}
	b.Push(&Record{ID: 1})
	b.Flush()
	if got != 1 {
		t.Fatalf("flush delivered %d, want 1", got)
	}
}

func TestDoubleBufferNilCallback(t *testing.T) {
	b := NewDoubleBuffer(1, nil)
	for i := uint64(1); i <= 5; i++ {
		b.Push(&Record{ID: i})
	}
	if drops, switches := b.Stats(); drops != 0 || switches != 5 {
		t.Fatalf("nil-callback buffer: drops=%d switches=%d", drops, switches)
	}
}

func TestDoubleBufferSetCapacity(t *testing.T) {
	n := 0
	b := NewDoubleBuffer(100, func(batch *RecordColumns, rel func()) { n++; rel() })
	b.SetCapacity(2)
	b.Push(&Record{})
	b.Push(&Record{})
	if n != 1 {
		t.Fatalf("swaps = %d after capacity change, want 1", n)
	}
	b.SetCapacity(0) // invalid: ignored
	b.Push(&Record{})
	b.Push(&Record{})
	if n != 2 {
		t.Fatalf("swaps = %d, want 2", n)
	}
}

func TestBufferSetRouting(t *testing.T) {
	hits := map[int]int{}
	s := NewBufferSet(2, 1, func(cpu int, batch *RecordColumns, rel func()) {
		hits[cpu] += batch.Len()
		rel()
	})
	s.Push(0, &Record{})
	s.Push(1, &Record{})
	s.Push(7, &Record{})  // out of range -> CPU 0
	s.Push(-1, &Record{}) // out of range -> CPU 0
	if hits[0] != 3 || hits[1] != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if s.NumCPUs() != 2 {
		t.Fatalf("NumCPUs = %d", s.NumCPUs())
	}
	if s.Buffer(1) == nil || s.Buffer(5) != nil {
		t.Fatal("Buffer accessor wrong")
	}
}

func TestBufferSetFlushAllAndStats(t *testing.T) {
	total := 0
	s := NewBufferSet(3, 10, func(cpu int, batch *RecordColumns, rel func()) {
		total += batch.Len()
		rel()
	})
	for cpu := 0; cpu < 3; cpu++ {
		s.Push(cpu, &Record{})
	}
	s.FlushAll()
	if total != 3 {
		t.Fatalf("flushed %d, want 3", total)
	}
	if _, switches := s.Stats(); switches != 3 {
		t.Fatalf("switches = %d", switches)
	}
}

// Property: pushed = delivered + dropped + still-buffered, for any push
// count and capacity, with an immediately-releasing consumer.
func TestDoubleBufferConservationProperty(t *testing.T) {
	prop := func(pushes uint16, capacity uint8) bool {
		delivered := 0
		b := NewDoubleBuffer(int(capacity%32), func(batch *RecordColumns, rel func()) {
			delivered += batch.Len()
			rel()
		})
		n := int(pushes % 2000)
		for i := 0; i < n; i++ {
			b.Push(&Record{})
		}
		drops, _ := b.Stats()
		return delivered+int(drops)+b.Len() == n && drops == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

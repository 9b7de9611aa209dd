package core

// DoubleBuffer is one CPU's record buffer pair. The LPA appends completed
// records to the active buffer; when it fills, the buffers swap and the
// dissemination daemon is notified to drain the full one ("each LPA
// maintains two per-CPU buffers ... when one of them has been filled, the
// dissemination daemon is notified, and the LPA switches to the next
// buffer"). If the daemon has not released the previous batch by the time
// the second buffer fills, new records are dropped — the paper's "if the
// data is not picked up in a timely fashion, it may be overwritten".
//
// Buffers are columnar (RecordColumns): the drain path sweeps contiguous
// per-field slices instead of striding across ~240-byte Record structs,
// and the batch stays structure-of-arrays all the way to GPA ingest.
type DoubleBuffer struct {
	capacity int
	active   *RecordColumns
	standby  *RecordColumns
	busy     bool // standby holds a drained batch not yet released
	single   bool // ablation: no standby buffer

	onFull func(batch *RecordColumns, release func())
	// release empties the drained batch parked in standby. It is built
	// once, so a buffer swap allocates nothing.
	release func()

	drops    uint64
	switches uint64
}

// NewDoubleBuffer returns a buffer pair of the given capacity. onFull is
// invoked with the filled batch and a release callback, to be called
// once; the batch is only valid until then.
func NewDoubleBuffer(capacity int, onFull func(batch *RecordColumns, release func())) *DoubleBuffer {
	if capacity < 1 {
		capacity = 1
	}
	b := &DoubleBuffer{
		capacity: capacity,
		active:   NewRecordColumns(capacity),
		standby:  NewRecordColumns(capacity),
		onFull:   onFull,
	}
	b.release = b.releaseBatch
	return b
}

// SetSingleBuffered switches to the ablation mode with no standby buffer:
// while a drained batch is outstanding, every push drops.
func (b *DoubleBuffer) SetSingleBuffered(single bool) { b.single = single }

// SetCapacity resizes the buffers (applies to future fills). The
// controller exposes this as a runtime knob.
func (b *DoubleBuffer) SetCapacity(capacity int) {
	if capacity >= 1 {
		b.capacity = capacity
	}
}

// Push appends a record, swapping buffers when full.
//
//sysprof:nonblocking
func (b *DoubleBuffer) Push(rec *Record) {
	if b.single && b.busy {
		b.drops++
		return
	}
	b.active.Append(rec)
	if b.active.Len() < b.capacity {
		return
	}
	b.flush()
}

// Flush forces the current buffer out even if not full.
func (b *DoubleBuffer) Flush() {
	if b.active.Len() == 0 {
		return
	}
	b.flush()
}

func (b *DoubleBuffer) flush() {
	if b.busy {
		// Both buffers committed: the oldest records are lost.
		b.drops += uint64(b.active.Len())
		b.active.Reset()
		return
	}
	batch := b.active
	b.active, b.standby = b.standby, batch // standby becomes active
	b.busy = true
	b.switches++
	if b.onFull != nil {
		b.onFull(batch, b.release)
	} else {
		b.releaseBatch()
	}
}

func (b *DoubleBuffer) releaseBatch() {
	b.standby.Reset()
	b.busy = false
}

// Stats reports dropped records and buffer switches.
func (b *DoubleBuffer) Stats() (drops, switches uint64) { return b.drops, b.switches }

// Len returns records currently in the active buffer.
func (b *DoubleBuffer) Len() int { return b.active.Len() }

// BufferSet is the per-CPU collection of double buffers.
type BufferSet struct {
	per []*DoubleBuffer
}

// NewBufferSet builds numCPUs buffer pairs.
func NewBufferSet(numCPUs, capacity int, onFull func(cpu int, batch *RecordColumns, release func())) *BufferSet {
	if numCPUs < 1 {
		numCPUs = 1
	}
	s := &BufferSet{per: make([]*DoubleBuffer, numCPUs)}
	for i := range s.per {
		cpu := i
		var cb func(batch *RecordColumns, release func())
		if onFull != nil {
			cb = func(batch *RecordColumns, release func()) { onFull(cpu, batch, release) }
		}
		s.per[i] = NewDoubleBuffer(capacity, cb)
	}
	return s
}

// Push routes a record to the buffer of the CPU it was captured on.
//
//sysprof:nonblocking
func (s *BufferSet) Push(cpu int, rec *Record) {
	if cpu < 0 || cpu >= len(s.per) {
		cpu = 0
	}
	s.per[cpu].Push(rec)
}

// FlushAll forces every CPU's buffer out.
func (s *BufferSet) FlushAll() {
	for _, b := range s.per {
		b.Flush()
	}
}

// Buffer returns CPU i's buffer pair (nil when out of range).
func (s *BufferSet) Buffer(i int) *DoubleBuffer {
	if i < 0 || i >= len(s.per) {
		return nil
	}
	return s.per[i]
}

// NumCPUs returns the number of buffer pairs.
func (s *BufferSet) NumCPUs() int { return len(s.per) }

// Stats sums drops and switches across CPUs.
func (s *BufferSet) Stats() (drops, switches uint64) {
	for _, b := range s.per {
		d, sw := b.Stats()
		drops += d
		switches += sw
	}
	return drops, switches
}

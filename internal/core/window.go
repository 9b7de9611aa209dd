package core

import "time"

// Window holds the most recent completed interactions for online queries
// ("LPA maintains a window containing the past several interactions and
// the metric values computed for them. Window size can be changed
// dynamically, and window contents are evicted to the dissemination
// daemon after some time.").
type Window struct {
	size    int
	ring    []Record
	head    int // next write position
	n       int // live records
	onEvict func(*Record)
}

// NewWindow returns a window of the given size; onEvict receives records
// pushed out (to the dissemination buffers), in place: the record is
// only valid during the call.
func NewWindow(size int, onEvict func(*Record)) *Window {
	if size < 1 {
		size = 1
	}
	return &Window{size: size, ring: make([]Record, size), onEvict: onEvict}
}

// Add inserts a copy of *rec, evicting the oldest when full.
func (w *Window) Add(rec *Record) {
	if w.n == w.size {
		if w.onEvict != nil {
			w.onEvict(&w.ring[w.head])
		}
		w.n--
	}
	w.ring[w.head] = *rec
	w.head = (w.head + 1) % w.size
	w.n++
}

// Len returns the number of records held.
func (w *Window) Len() int { return w.n }

// Size returns the window capacity.
func (w *Window) Size() int { return w.size }

// start returns the ring index of the oldest record.
func (w *Window) start() int {
	return (w.head - w.n + w.size*2) % w.size
}

// Resize changes the capacity at runtime. Shrinking evicts the oldest
// records in place; the ring is reallocated only when the capacity
// actually changes.
func (w *Window) Resize(size int) {
	if size < 1 {
		size = 1
	}
	if size == w.size {
		return
	}
	// Evict oldest records that will not fit, walking the ring in place.
	for w.n > size {
		i := w.start()
		if w.onEvict != nil {
			w.onEvict(&w.ring[i])
		}
		w.ring[i] = Record{}
		w.n--
	}
	ring := make([]Record, size)
	old := w.start()
	for i := 0; i < w.n; i++ {
		ring[i] = w.ring[(old+i)%w.size]
	}
	w.size = size
	w.ring = ring
	w.head = w.n % size
}

// EvictOlderThan pushes out records whose End precedes cutoff, compacting
// survivors within the ring — no snapshot copy, zero allocations.
func (w *Window) EvictOlderThan(cutoff time.Duration) {
	start := w.start()
	kept := 0
	for i := 0; i < w.n; i++ {
		idx := (start + i) % w.size
		r := &w.ring[idx]
		if r.End < cutoff {
			if w.onEvict != nil {
				w.onEvict(r)
			}
			continue
		}
		to := (start + kept) % w.size
		if to != idx {
			w.ring[to] = *r
		}
		kept++
	}
	// Zero the vacated tail so evicted records' strings are released.
	for i := kept; i < w.n; i++ {
		w.ring[(start+i)%w.size] = Record{}
	}
	w.n = kept
	w.head = (start + kept) % w.size
}

// EvictAll pushes every record out (shutdown path), in place.
func (w *Window) EvictAll() {
	start := w.start()
	for i := 0; i < w.n; i++ {
		idx := (start + i) % w.size
		if w.onEvict != nil {
			w.onEvict(&w.ring[idx])
		}
		w.ring[idx] = Record{}
	}
	w.head = 0
	w.n = 0
}

// Snapshot returns the records oldest-first. The slice is a copy.
func (w *Window) Snapshot() []Record {
	out := make([]Record, 0, w.n)
	start := (w.head - w.n + w.size*2) % w.size
	for i := 0; i < w.n; i++ {
		out = append(out, w.ring[(start+i)%w.size])
	}
	return out
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
)

// span is one timed call into a layer, taken from the benchmark's side of
// the call. Start and End are monotonic nanoseconds since process start.
// Batch is node<<56 | first record ID of the LPA buffer the work belongs
// to; everything one flushed buffer causes shares it.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Batch  uint64 `json:"batch,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 19

// flushedBatch remembers one traced LPA buffer flush so that what the
// subscriber later receives can be tied back to it. Record IDs rise in
// flush order (the generator visits flows round-robin), so the ID range
// identifies the batch even after the broker split it between shards.
type flushedBatch struct {
	batch        uint64
	minID, maxID uint64
	spanID       uint64
	start        int64
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off for an untraced window, records nothing.
type tracer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu        sync.Mutex
	spans     []span
	dropped   uint64
	flushed   map[uint16][]flushedBatch // per node, oldest first
	recvRecs  uint64                    // records ingested inside traced spans
	residency []float64                 // record End -> OnFull entry, ms
	transit   []float64                 // OnFull entry -> Recv return, ms

	// curEmit is the sampled emit span the generator goroutine is inside,
	// so a buffer flush it triggers becomes its child.
	curEmit uint64
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// add keeps one finished span, numbering it unless the caller reserved its
// ID beforehand (a parent whose children finish first).
func (t *tracer) add(s span) uint64 {
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s.ID
}

// emitSpan wraps one Hub.Emit in a span.
func (t *tracer) emitSpan(h *kprof.Hub, ev *kprof.Event) {
	if !t.enabled.Load() {
		h.Emit(ev)
		return
	}
	id := t.nextID.Add(1)
	t.curEmit = id
	start := mono()
	h.Emit(ev)
	end := mono()
	t.curEmit = 0
	t.add(span{Name: "kprof.emit", ID: id, Start: start, End: end})
}

func batchIdentity(batch *core.RecordColumns) uint64 {
	return uint64(batch.Nodes[0])<<56 | batch.IDs[0]&(1<<56-1)
}

// onFull wraps one Daemon.OnFull call: the span, the residency of the
// batch's records up to this point, and the registration that lets the
// receive side find the batch again.
func (t *tracer) onFull(batch *core.RecordColumns, clockNow int64, call func()) {
	fb := flushedBatch{batch: batchIdentity(batch), minID: batch.IDs[0], maxID: batch.IDs[0]}
	for _, id := range batch.IDs {
		if id < fb.minID {
			fb.minID = id
		}
		if id > fb.maxID {
			fb.maxID = id
		}
	}
	node := uint16(batch.Nodes[0])
	t.mu.Lock()
	for i := 0; i < len(batch.Ends); i += 8 {
		t.residency = append(t.residency, float64(clockNow-int64(batch.Ends[i]))/1e6)
	}
	t.mu.Unlock()

	fb.start = mono()
	call()
	end := mono()
	fb.spanID = t.add(span{Name: "dissem.onfull", Parent: t.curEmit, Batch: fb.batch, Start: fb.start, End: end})

	t.mu.Lock()
	q := append(t.flushed[node], fb)
	if len(q) > 256 {
		q = q[len(q)-256:]
	}
	t.flushed[node] = q
	t.mu.Unlock()
}

// received records the spans of one Subscriber.Recv and the IngestColumns
// call that followed it.
func (t *tracer) received(cols *core.RecordColumns, recvStart, recvEnd, ingestEnd int64) {
	var fb flushedBatch
	id, node := cols.IDs[0], uint16(cols.Nodes[0])
	t.mu.Lock()
	for _, cand := range t.flushed[node] {
		if cand.minID <= id && id <= cand.maxID {
			fb = cand
			break
		}
	}
	if fb.spanID != 0 { // else flushed in an untraced window, received in a traced one
		t.transit = append(t.transit, float64(recvEnd-fb.start)/1e6)
	}
	t.recvRecs += uint64(cols.Len())
	t.mu.Unlock()
	recv := t.add(span{Name: "pubsub.recv", Parent: fb.spanID, Batch: fb.batch, Start: recvStart, End: recvEnd})
	t.add(span{Name: "gpa.ingest", Parent: recv, Batch: fb.batch, Start: recvEnd, End: ingestEnd})
}

// ingested records one IngestColumns call that no receive preceded.
func (t *tracer) ingested(rows int, start, end int64) {
	t.mu.Lock()
	t.recvRecs += uint64(rows)
	t.mu.Unlock()
	t.add(span{Name: "gpa.ingest", Start: start, End: end})
}

// spanTotals is what the per-layer table needs from one span name.
type spanTotals struct {
	count uint64
	total int64 // ns
	self  int64 // ns, total minus the time covered by child spans
}

// totals sums spans by name, charging each child's duration against its
// parent's self time.
func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]int, len(t.spans))
	for i := range t.spans {
		byID[t.spans[i].ID] = i
	}
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if pi, ok := byID[s.Parent]; ok && s.Parent != 0 {
			// Only time inside the parent's interval is the parent's: a
			// receive caused by a flush runs long after the flush returned.
			p := &t.spans[pi]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				child[pi] += hi - lo
			}
		}
	}
	out := make(map[string]spanTotals)
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Name]
		st.count++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// write stores the trace as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  uint64 `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func newTracer() *tracer {
	return &tracer{flushed: make(map[uint16][]flushedBatch)}
}

// Package trace records kprof event streams to PBIO-encoded logs, the
// events in batches of columns, and replays them offline. The paper's GPA
// works from per-node monitoring logs; this package provides the same
// capability at event granularity, so analyses can be developed and
// re-run against captured traces ("auditing, workload prediction, and
// system modeling") without re-running the system.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"time"

	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// traceRows is how many events one columns frame of a trace carries.
const traceRows = 1024

// traceReg holds the trace format: kprof.Event itself, its nested flow
// flattened by pbio.
var (
	traceReg    = pbio.NewRegistry()
	traceFormat = traceReg.MustRegister("sysprof.trace.event", kprof.Event{})
)

// Writer records events to a stream: the format definition once, then one
// raw-coded compressed columns frame per traceRows events.
type Writer struct {
	w      io.Writer
	batch  []kprof.Event
	buf    []byte
	events uint64
	err    error
	subs   []*kprof.Subscription
}

// NewWriter returns a trace writer targeting w, having written the trace
// format's definition to it.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(traceFormat.AppendDef(nil)); err != nil {
		return nil, fmt.Errorf("trace: write format: %w", err)
	}
	return &Writer{w: w, batch: make([]kprof.Event, 0, traceRows)}, nil
}

// Write records one event. It is written out with the rest of its batch,
// or by Close.
func (t *Writer) Write(ev *kprof.Event) {
	if t.err != nil {
		return
	}
	t.batch = append(t.batch, *ev)
	t.events++
	if len(t.batch) == traceRows {
		t.flush()
	}
}

// flush writes the buffered events as one frame.
func (t *Writer) flush() {
	p, cols := pbio.StructColumns(traceReg, t.batch)
	var err error
	if t.buf, _, err = p.AppendCompressedColumnsFrame(t.buf[:0], cols); err == nil {
		_, err = t.w.Write(t.buf)
	}
	if err != nil {
		t.err = fmt.Errorf("trace: write: %w", err)
	}
	t.batch = t.batch[:0]
}

// Attach subscribes the writer to a hub for the given mask, recording
// every delivered event. Close the returned subscription (or call
// Detach) to stop.
func (t *Writer) Attach(hub *kprof.Hub, mask kprof.Mask) *kprof.Subscription {
	sub := hub.Subscribe(mask, t.Write)
	t.subs = append(t.subs, sub)
	return sub
}

// Detach closes all subscriptions created by Attach.
func (t *Writer) Detach() {
	for _, s := range t.subs {
		s.Close()
	}
	t.subs = nil
}

// Close writes the last partial batch and returns the first write error;
// after an error the writer records nothing more. Close does not close
// the underlying writer; call it after the last Write.
func (t *Writer) Close() error {
	if t.err == nil && len(t.batch) > 0 {
		t.flush()
	}
	return t.err
}

// Events returns how many events were recorded, counting those buffered
// for the next frame.
func (t *Writer) Events() uint64 { return t.events }

// Replay decodes a trace, invoking fn per event in stream order. It
// returns the number of events replayed. fn may return an error to abort.
func Replay(r io.Reader, fn func(*kprof.Event) error) (int, error) {
	if _, ok := r.(io.ByteReader); !ok {
		// The decoder reads a field at a time; without a buffer each is a
		// read(2) on a file.
		r = bufio.NewReader(r)
	}
	dec := pbio.NewDecoder(r, traceReg)
	n := 0
	for {
		rec, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("trace: replay: %w", err)
		}
		evs, _ := rec.Value.([]kprof.Event) // another format in a mixed stream: skip
		for i := range evs {
			if err := fn(&evs[i]); err != nil {
				return n, err
			}
			n++
		}
	}
}

// ReplaySession replays a multi-node trace into per-node analyzer stacks:
// for each node appearing in the trace it creates a hub (with the traced
// timestamps as its clock) and calls attach so the caller can install
// LPAs/CPAs; events are then re-emitted through those hubs exactly as the
// original kernels emitted them. Per-event instrumentation cost is zero
// during replay (the events already paid it when captured).
func ReplaySession(r io.Reader, attach func(node simnet.NodeID, hub *kprof.Hub)) (int, error) {
	hubs := make(map[simnet.NodeID]*kprof.Hub)
	clocks := make(map[simnet.NodeID]*time.Duration)
	return Replay(r, func(ev *kprof.Event) error {
		hub := hubs[ev.Node]
		if hub == nil {
			now := new(time.Duration)
			clock := func() time.Duration { return *now }
			hub = kprof.NewHub(ev.Node, clock)
			hub.SetPerEventCost(0)
			hubs[ev.Node] = hub
			clocks[ev.Node] = now
			if attach != nil {
				attach(ev.Node, hub)
			}
		}
		*clocks[ev.Node] = ev.Time
		hub.Emit(ev)
		return nil
	})
}

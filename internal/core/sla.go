package core

import (
	"time"

	"sysprof/internal/simnet"
)

// ClientClassifier groups interactions by the requesting client node —
// the paper's third monitoring granularity, "characterizing the server
// resources consumed by sets of clients or client behaviors". Combine
// with Granularity PerClass for per-client aggregate accounting. Like
// PortClassifier it builds each node's name once, and it belongs to one
// LPA.
func ClientClassifier() Classifier {
	name := interned[simnet.NodeID]("client:")
	return func(r *Record) string { return name(r.Flow.Src.Node) }
}

// SLA is a per-class service-level objective over interaction records.
type SLA struct {
	// Class the objective applies to ("" = every class).
	Class string
	// MaxResidence is the per-interaction latency bound.
	MaxResidence time.Duration
	// Window and MaxViolations tolerate sporadic misses: the SLA is
	// breached when more than MaxViolations of the last Window
	// interactions exceeded the bound (mirroring DWCS's x/y windows).
	Window        int
	MaxViolations int
}

// SLAWatcher evaluates completed interactions against service-level
// objectives and invokes a callback on breach — the paper's "enforcing
// service level agreements" use of monitoring data, usable directly as an
// LPA OnComplete hook.
type SLAWatcher struct {
	slas     []SLA
	onBreach func(sla SLA, r *Record)
	// recent[i] is a sliding bitset-ish window of recent outcomes per SLA
	// (true = violated).
	recent [][]bool

	checked  uint64
	breaches uint64
}

// NewSLAWatcher builds a watcher; onBreach fires once per breaching
// record (after tolerance is exhausted).
func NewSLAWatcher(slas []SLA, onBreach func(sla SLA, r *Record)) *SLAWatcher {
	w := &SLAWatcher{slas: slas, onBreach: onBreach, recent: make([][]bool, len(slas))}
	for i := range slas {
		if slas[i].Window < 1 {
			w.slas[i].Window = 1
		}
	}
	return w
}

// OnComplete feeds one record; wire it into core.Config.OnComplete.
func (w *SLAWatcher) OnComplete(r *Record) {
	w.checked++
	for i := range w.slas {
		sla := &w.slas[i]
		if sla.Class != "" && sla.Class != r.Class {
			continue
		}
		violated := r.Residence() > sla.MaxResidence
		w.recent[i] = append(w.recent[i], violated)
		if len(w.recent[i]) > sla.Window {
			w.recent[i] = w.recent[i][len(w.recent[i])-sla.Window:]
		}
		if !violated {
			continue
		}
		n := 0
		for _, v := range w.recent[i] {
			if v {
				n++
			}
		}
		if n > sla.MaxViolations {
			w.breaches++
			if w.onBreach != nil {
				w.onBreach(*sla, r)
			}
		}
	}
}

// Stats reports records checked and breaches raised.
func (w *SLAWatcher) Stats() (checked, breaches uint64) { return w.checked, w.breaches }

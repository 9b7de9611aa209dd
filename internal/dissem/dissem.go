// Package dissem implements the SysProf dissemination daemon. On each
// node it drains the LPA per-CPU buffers (on "buffer full" notifications),
// publishes the records on publish-subscribe channels for remote
// consumers (the GPA) — columnar batches encoded straight into PBIO wire
// frames through a cached plan — and exposes current state through the
// /proc virtual filesystem.
package dissem

import (
	"fmt"
	"strings"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/procfs"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
)

// ChannelInteractions is the pub-sub channel carrying interaction records.
const ChannelInteractions = "sysprof.interactions"

// ChannelAggregates carries per-class aggregates from LPAs running at
// class granularity. Aggregates are published as deltas on each daemon
// flush and reset locally, so subscribers can sum them.
const ChannelAggregates = "sysprof.aggregates"

// WireAggregate is a per-class aggregate delta from one node, as
// published: pbio flattens the embedded aggregate into the row the way
// it flattens Record.Flow.
type WireAggregate struct {
	Node simnet.NodeID
	core.Aggregate
}

// AggregateBatch is one flush's aggregate deltas as the broker publishes
// them: the rows viewed as columns by pbio.StructColumns, routed by node
// hash — the key the GPA's shardForNode stripes aggregates by — so a
// sharded subscriber tier receives each delta exactly once.
type AggregateBatch []WireAggregate

// Len implements core.Batch.
func (a AggregateBatch) Len() int { return len(a) }

// Columns implements core.Batch.
func (a AggregateBatch) Columns(reg *pbio.Registry) (*pbio.Plan, pbio.CompressedColumnAppender) {
	return pbio.StructColumns(reg, []WireAggregate(a))
}

// Shard implements core.Batch.
func (a AggregateBatch) Shard(sel core.ShardSelector) core.Batch {
	return a.Keep(func(row any) bool { return sel.Match(simnet.NodeShardHash(row.(*WireAggregate).Node)) })
}

// Keep implements core.Batch; keep sees each row as a *WireAggregate.
func (a AggregateBatch) Keep(keep func(row any) bool) core.Batch {
	var kept AggregateBatch
	for i := range a {
		if keep(&a[i]) {
			kept = append(kept, a[i])
		}
	}
	return kept
}

// Release implements core.Batch; the scratch batches are not pooled.
func (AggregateBatch) Release() {}

// RegisterFormats registers the daemon's wire formats with a PBIO
// registry (both broker and subscriber sides need this): the interaction
// format with its column decoder, and the aggregate-delta rows, which
// bind none — a subscriber gets a flush's deltas back as one
// []WireAggregate per Recv.
func RegisterFormats(reg *pbio.Registry) error {
	if err := core.RegisterRecordFormat(reg); err != nil {
		return fmt.Errorf("dissem: %w", err)
	}
	if _, err := reg.Register("sysprof.aggregate", WireAggregate{}); err != nil {
		return fmt.Errorf("dissem: %w", err)
	}
	return nil
}

// Stats counts daemon activity.
type Stats struct {
	BatchesDrained   uint64
	BatchesPublished uint64
	// RecordsPublished counts interaction records only, so that
	// published + dropped is what left the LPA buffers.
	RecordsPublished uint64
	PublishErrors    uint64
	// RecordsDropped counts records lost to failed publishes — each
	// errored batch contributes its full record count, so scenario-level
	// loss accounting can attribute every record that left an LPA buffer
	// but never reached a subscriber.
	RecordsDropped uint64
	// AggregatesPublished and AggregatesDropped count per-class aggregate
	// deltas the same way.
	AggregatesPublished uint64
	AggregatesDropped   uint64
}

// Config configures a daemon.
type Config struct {
	// NodeName labels procfs entries (e.g. "/sysprof/<node>/...").
	NodeName string
	// Node is the node id stamped on published aggregates.
	Node simnet.NodeID
	// CopyDelay models the daemon wake-up plus buffer copy latency: the
	// LPA buffer is released only after this much virtual time, which is
	// what makes buffer sizing matter (records drop if both buffers fill
	// before the daemon catches up).
	CopyDelay time.Duration
	// FlushInterval is how often the daemon force-flushes LPA windows and
	// partial buffers ("window contents are evicted ... after some time").
	FlushInterval time.Duration
	// MaxWindowAge evicts window records older than this on each flush.
	MaxWindowAge time.Duration
	// FlowExpiry drops LPA flow-table state for flows with no traffic in
	// this long, reclaiming table slots on each periodic flush. 0 disables
	// expiry (flows live until Stop). Expiry only removes flows with no
	// episode in flight, so it never truncates an active interaction.
	FlowExpiry time.Duration
}

// Daemon is one node's dissemination daemon.
type Daemon struct {
	eng    *sim.Engine
	broker *pubsub.Broker
	fs     *procfs.FS
	cfg    Config

	lpas    []*core.LPA
	flushEv *sim.Event
	stats   Stats
}

// New creates a daemon. broker and fs may be nil (publishing / procfs
// disabled, useful in unit tests and overhead ablations).
func New(eng *sim.Engine, broker *pubsub.Broker, fs *procfs.FS, cfg Config) *Daemon {
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 500 * time.Millisecond
	}
	if cfg.MaxWindowAge <= 0 {
		cfg.MaxWindowAge = 2 * time.Second
	}
	if cfg.NodeName == "" {
		cfg.NodeName = "node"
	}
	return &Daemon{eng: eng, broker: broker, fs: fs, cfg: cfg}
}

// OnFull is the callback to wire into core.Config.OnFull when building an
// LPA this daemon serves: it publishes the drained columnar batch and
// releases the LPA buffer after the configured copy delay. The batch stays
// valid until release() is called (the buffer cannot be reused before
// then), so no defensive copy is made — the broker encodes the columns
// straight into the wire buffer at publish time.
//
//sysprof:nonblocking
func (d *Daemon) OnFull(cpu int, batch *core.RecordColumns, release func()) {
	d.stats.BatchesDrained++
	publish := func() {
		d.publishColumns(batch)
		release()
	}
	if d.cfg.CopyDelay <= 0 {
		publish()
		return
	}
	d.eng.After(d.cfg.CopyDelay, publish)
}

// publishColumns publishes one drained columnar batch. Local subscribers
// receive the *core.RecordColumns itself, valid only during their callback
// (the LPA buffer is released afterwards); remote subscribers get a
// columnar wire frame with no intermediate copy.
//
//sysprof:nonblocking
func (d *Daemon) publishColumns(batch *core.RecordColumns) {
	n := batch.Len()
	if n == 0 {
		return
	}
	if d.broker == nil {
		d.stats.RecordsPublished += uint64(n)
		return
	}
	if err := d.broker.PublishColumns(ChannelInteractions, batch); err != nil {
		d.stats.PublishErrors++
		d.stats.RecordsDropped += uint64(n)
		return
	}
	d.stats.BatchesPublished++
	d.stats.RecordsPublished += uint64(n)
}

// Serve registers an LPA with the daemon: its window is flushed
// periodically and its state appears in procfs. Call Start afterwards to
// begin the flush timer.
func (d *Daemon) Serve(lpa *core.LPA) {
	idx := len(d.lpas)
	d.lpas = append(d.lpas, lpa)
	if d.fs == nil {
		return
	}
	base := fmt.Sprintf("/sysprof/%s/lpa/%d", d.cfg.NodeName, idx)
	d.fs.Register(base+"/window", func() string {
		var sb strings.Builder
		for _, r := range lpa.Window().Snapshot() {
			fmt.Fprintf(&sb, "%d %s class=%s user=%v kernel=%v blocked=%v total=%v\n",
				r.ID, r.Flow, r.Class, r.UserTime, r.KernelTime(), r.BlockedTime, r.Residence())
		}
		return sb.String()
	})
	d.fs.Register(base+"/stats", func() string {
		st := lpa.Stats()
		drops, switches := lpa.Buffers().Stats()
		return fmt.Sprintf("events=%d interactions=%d flows=%d dropped_episodes=%d buf_drops=%d buf_switches=%d\n",
			st.Events, st.Interactions, st.OpenFlows, st.DroppedEpisodes, drops, switches)
	})
	d.fs.Register(base+"/breakdown", func() string {
		// Figure-1 style per-step latency view of the newest interaction.
		recs := lpa.Window().Snapshot()
		if len(recs) == 0 {
			return "no interactions in window\n"
		}
		return core.RenderBreakdown(&recs[len(recs)-1])
	})
	d.fs.Register(base+"/aggregates", func() string {
		var sb strings.Builder
		for class, agg := range lpa.Aggregates() {
			fmt.Fprintf(&sb, "%s count=%d mean_user=%v mean_kernel=%v mean_total=%v\n",
				class, agg.Count, agg.MeanUser(), agg.MeanKernel(), agg.MeanResidence())
		}
		return sb.String()
	})
}

// Start begins periodic window eviction and buffer flushing.
func (d *Daemon) Start() {
	if d.flushEv != nil {
		return
	}
	var tick func()
	tick = func() {
		d.FlushNow()
		d.flushEv = d.eng.After(d.cfg.FlushInterval, tick)
	}
	d.flushEv = d.eng.After(d.cfg.FlushInterval, tick)
}

// FlushNow evicts aged window contents, drains partial buffers, and
// publishes per-class aggregate deltas for LPAs running at class
// granularity.
func (d *Daemon) FlushNow() {
	cutoff := d.eng.Now() - d.cfg.MaxWindowAge
	var idleCutoff time.Duration
	if d.cfg.FlowExpiry > 0 {
		idleCutoff = d.eng.Now() - d.cfg.FlowExpiry
	}
	for _, lpa := range d.lpas {
		lpa.Window().EvictOlderThan(cutoff)
		lpa.Buffers().FlushAll()
		if idleCutoff > 0 {
			lpa.ExpireIdleFlows(idleCutoff)
		}
	}
	d.publishAggregates()
}

// publishAggregates publishes, as a single pub-sub batch, what the LPAs
// running at class granularity have aggregated since the last call, and
// resets it: subscribers sum deltas.
func (d *Daemon) publishAggregates() {
	var wires AggregateBatch
	for _, lpa := range d.lpas {
		if lpa.Granularity() != core.PerClass {
			continue
		}
		aggs := lpa.Aggregates()
		if len(aggs) == 0 {
			continue
		}
		lpa.ResetAggregates()
		if d.broker == nil {
			continue
		}
		for _, agg := range aggs {
			wires = append(wires, WireAggregate{Node: d.cfg.Node, Aggregate: agg})
		}
	}
	if len(wires) == 0 {
		return
	}
	if err := d.broker.PublishColumns(ChannelAggregates, wires); err != nil {
		d.stats.PublishErrors++
		d.stats.AggregatesDropped += uint64(len(wires))
		return
	}
	d.stats.BatchesPublished++
	d.stats.AggregatesPublished += uint64(len(wires))
}

// FlushInterval reports the current flush period.
func (d *Daemon) FlushInterval() time.Duration { return d.cfg.FlushInterval }

// SetFlushInterval changes the flush period at runtime (the controller's
// "flushinterval" command). If the periodic timer is running it is
// rescheduled so the new period takes effect immediately; non-positive
// values are rejected.
func (d *Daemon) SetFlushInterval(iv time.Duration) error {
	if iv <= 0 {
		return fmt.Errorf("dissem: flush interval must be positive, got %v", iv)
	}
	d.cfg.FlushInterval = iv
	if d.flushEv != nil {
		d.flushEv.Cancel()
		d.flushEv = nil
		d.Start()
	}
	return nil
}

// Stop cancels the flush timer and performs a final full flush: open
// interactions are force-closed first, so the last aggregate deltas
// include them.
func (d *Daemon) Stop() {
	if d.flushEv != nil {
		d.flushEv.Cancel()
		d.flushEv = nil
	}
	for _, lpa := range d.lpas {
		lpa.FlushOpen()
		lpa.Window().EvictAll()
		lpa.Buffers().FlushAll()
	}
	d.publishAggregates()
}

// Stats returns daemon counters.
func (d *Daemon) Stats() Stats { return d.stats }

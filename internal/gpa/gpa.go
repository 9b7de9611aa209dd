// Package gpa implements the SysProf Global Performance Analyzer. It
// subscribes to the interaction records published by per-node
// dissemination daemons, correlates the client-side and server-side views
// of each interaction (by the flow's address four-tuple plus NTP-adjusted
// timestamps), aggregates per-node and per-class statistics, answers
// queries from other system components (e.g. resource-aware schedulers),
// and periodically dumps its state for offline auditing.
//
// # Sharding
//
// The analyzer is the aggregation point for every monitored node, so its
// ingest path is the system's scaling bottleneck. State is split across a
// power-of-two number of lock-striped shards keyed by a hash of the
// record's canonical flow four-tuple: both endpoints of an interaction
// hash to the same shard, so correlation never crosses a shard boundary
// and concurrent subscriber goroutines ingesting unrelated flows never
// contend. Correlated interactions carry a global sequence number so
// queries can present them in completion order; per-node and per-class
// aggregates are merged across shards at query time (queries are rare,
// ingest is hot).
package gpa

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// EndToEnd is a correlated interaction: the same request/response pair as
// observed at the two endpoints.
type EndToEnd struct {
	Flow   simnet.FlowKey `json:"flow"`
	Client core.Record    `json:"client"`
	Server core.Record    `json:"server"`
}

// NetworkDelay estimates total network time: the client saw the
// interaction for its whole round trip, the server only while it was
// local, so the difference approximates two one-way trips (plus clock
// error, which NTP sync bounds).
func (e *EndToEnd) NetworkDelay() time.Duration {
	d := e.Client.Residence() - e.Server.Residence()
	if d < 0 {
		return 0
	}
	return d
}

// loadBuckets is how many fixed-width time buckets a load window is cut
// into. A window spans at most loadBuckets+1 of them (the cutoff rarely
// falls on a bucket edge), so what a node's window costs is set by this
// constant, not by how many records the node reports.
const loadBuckets = 64

// loadBucket sums the load of the records that completed in one
// bucket-width slice of time: every record whose End / width is idx.
type loadBucket struct {
	idx           int64
	n             int64
	res, ker, buf time.Duration
}

// nodeWindow is a node's recent load for load queries: its buckets in
// ascending idx order, grown lazily (a node seen once holds one bucket)
// and never more than loadBuckets+1 long.
type nodeWindow struct {
	buckets []loadBucket
}

// add folds one record's load into bucket idx. oldest is the first live
// bucket — the one the load-window cutoff falls in. Opening a bucket
// expires those before oldest or more than loadBuckets behind the newest,
// and a record that would land in an expired bucket is dropped: no query
// can count it. An out-of-order end finds its bucket by a short scan from
// the back. The backing array doubles up to loadBuckets+1 and no further.
//
//sysprof:nonblocking
func (nw *nodeWindow) add(idx, oldest int64, res, ker, buf time.Duration) {
	b := nw.buckets
	k := len(b)
	if k > 0 && b[k-1].idx == idx && idx >= oldest {
		b[k-1].fold(res, ker, buf)
		return
	}
	if k > 0 {
		oldest = max(oldest, max(b[k-1].idx, idx)-loadBuckets)
	}
	if idx < oldest {
		return
	}
	expired := 0
	for expired < k && b[expired].idx < oldest {
		expired++
	}
	if expired > 0 {
		k = copy(b, b[expired:])
		b = b[:k]
	}
	at := k
	for at > 0 && b[at-1].idx > idx {
		at--
	}
	if at > 0 && b[at-1].idx == idx {
		b[at-1].fold(res, ker, buf)
		nw.buckets = b
		return
	}
	if k == cap(b) {
		grown := make([]loadBucket, k, min(max(2*k, 1), loadBuckets+1))
		copy(grown, b)
		b = grown
	}
	b = b[:k+1]
	copy(b[at+1:], b[at:k])
	b[at] = loadBucket{idx: idx}
	b[at].fold(res, ker, buf)
	nw.buckets = b
}

func (b *loadBucket) fold(res, ker, buf time.Duration) {
	b.n++
	b.res += res
	b.ker += ker
	b.buf += buf
}

// Config tunes the analyzer.
type Config struct {
	// CorrelationWindow bounds |clientStart - serverStart| for two records
	// to be considered the same interaction. Must exceed the worst-case
	// clock error plus one-way delay.
	CorrelationWindow time.Duration
	// LoadWindow is how much history ServerLoad considers. Load is kept
	// by completion time in buckets LoadWindow/64 wide (rounded up to a
	// whole nanosecond), so the cutoff moves in bucket steps: ServerLoad
	// counts from the start of the bucket the cutoff falls in, which
	// admits at most one bucket width of extra history.
	LoadWindow time.Duration
	// MaxPending bounds uncorrelated records kept per flow.
	MaxPending int
	// Shards is the number of lock stripes (rounded up to a power of
	// two). More shards mean less contention between subscriber
	// goroutines; the default suits a handful of ingest goroutines.
	Shards int
	// StaleAfter is how long an uncorrelated record may wait for its
	// counterpart before it is pruned (its peer record was dropped or the
	// remote node is not monitored). Must exceed CorrelationWindow or
	// records could be pruned while still correlatable; defaults to a
	// generous multiple of it.
	StaleAfter time.Duration
	// MaxCorrelated caps the correlated-interaction history kept in
	// memory, across all shards (0 = unbounded). When a shard exceeds its
	// share of the cap by 25% the oldest interactions are evicted down to
	// the share, so week-long runs hold steady-state memory; pair with
	// periodic DumpAndTruncate to keep the full history on disk.
	MaxCorrelated int
	// MaxCorrelatedAge evicts correlated interactions whose completion is
	// older than this (0 = no age bound). Age eviction piggybacks on the
	// incremental stale-pending sweep, so it costs nothing extra on the
	// ingest hot path.
	MaxCorrelatedAge time.Duration
}

// Stats counts analyzer activity.
type Stats struct {
	Ingested     uint64
	Correlated   uint64
	Uncorrelated uint64
	StalePruned  uint64
	// CorrelatedEvicted counts correlated interactions dropped from the
	// in-memory history by the retention policy (count cap, age bound, or
	// DumpAndTruncate).
	CorrelatedEvicted uint64
	Dumps             uint64
}

// seqE2E is a correlated interaction tagged with its global completion
// sequence number (shards correlate independently; queries sort by seq to
// recover completion order).
type seqE2E struct {
	seq uint64
	e2e EndToEnd
}

// shard is one lock stripe of analyzer state. All records of a canonical
// flow land on the same shard, so correlation is shard-local; per-node
// state is spread across shards and merged at query time.
type shard struct {
	mu sync.Mutex
	// pending records waiting for their counterpart, per canonical flow.
	pending map[simnet.FlowKey][]core.Record
	// correlated end-to-end interactions, tagged with global seq.
	correlated []seqE2E
	// per-node recent records (for load estimation).
	byNode map[simnet.NodeID]*nodeWindow
	// per node+class aggregates.
	byClass map[simnet.NodeID]map[string]*core.Aggregate

	// partial counters, summed by StatsSnapshot (Dumps stays global).
	stats Stats
	// ingests since the last stale sweep.
	sinceSweep int

	// corr is the vectorized columnar correlation scratch (columns.go),
	// reused across batches under mu.
	corr batchCorrelator
}

// staleSweepEvery is how many ingests a shard absorbs between incremental
// stale-pending sweeps. Sweeps are O(pending) so they are amortized; the
// explicit PruneStale method exists for deterministic tests and shutdown.
const staleSweepEvery = 1024

// minPendingCap is the per-flow backing-array capacity below which the
// stale sweep never bothers right-sizing: reallocating tiny slices churns
// more than the few KiB it frees.
const minPendingCap = 64

// GPA is the global analyzer. It is safe for concurrent use (records can
// arrive from multiple subscriber goroutines).
type GPA struct {
	cfg    Config
	shards []shard
	mask   uint64
	// perShardCap is MaxCorrelated split across shards (0 = unbounded).
	// Atomic so the federation retention knob can retune it at runtime
	// while shards trim under their own locks.
	perShardCap atomic.Int64
	// bucketWidth is the load-window bucket width in nanoseconds.
	bucketWidth int64
	// seq orders correlations globally across shards.
	seq atomic.Uint64
	// dumps is kept out of the shards (not tied to any flow).
	dumps atomic.Uint64

	// clockBounds maps a node to the bound on its residual clock error
	// (from NTP sync quality). The correlation window for a node pair is
	// widened by the sum of the two bounds, so nodes with poor sync still
	// correlate instead of silently aging out. Copy-on-write: updates are
	// rare (sync-cadence), reads are per-ingest.
	clockBounds atomic.Pointer[map[simnet.NodeID]time.Duration]
	// maxClockBound caches the largest registered bound (nanoseconds) so
	// the stale sweep can keep records long enough for the widest pair
	// window without walking the map.
	maxClockBound atomic.Int64
	// boundsMu serializes clockBounds writers.
	boundsMu sync.Mutex

	// now supplies current time for load-window pruning (virtual time in
	// simulations; wall-clock-derived in live deployments).
	now func() time.Duration
}

// New returns an analyzer. now supplies the current time base used for
// sliding-window load queries.
func New(cfg Config, now func() time.Duration) *GPA {
	if cfg.CorrelationWindow <= 0 {
		cfg.CorrelationWindow = 500 * time.Millisecond
	}
	if cfg.LoadWindow <= 0 {
		cfg.LoadWindow = time.Second
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 8 * cfg.CorrelationWindow
	}
	if cfg.StaleAfter < cfg.CorrelationWindow {
		cfg.StaleAfter = cfg.CorrelationWindow
	}
	g := &GPA{cfg: cfg, shards: make([]shard, n), mask: uint64(n - 1), now: now,
		bucketWidth: (int64(cfg.LoadWindow) + loadBuckets - 1) / loadBuckets}
	g.storeMaxCorrelated(cfg.MaxCorrelated)
	for i := range g.shards {
		s := &g.shards[i]
		s.pending = make(map[simnet.FlowKey][]core.Record)
		s.byNode = make(map[simnet.NodeID]*nodeWindow)
		s.byClass = make(map[simnet.NodeID]map[string]*core.Aggregate)
	}
	return g
}

// hashFlow is the flow shard key. It is simnet.FlowKey.ShardHash, shared
// with the dissemination shard router and the federated gpad tier so all
// three agree on which shard owns a flow.
//
//sysprof:nonblocking
func hashFlow(key simnet.FlowKey) uint64 {
	return key.ShardHash()
}

// storeMaxCorrelated splits a history cap across shards.
func (g *GPA) storeMaxCorrelated(max int) {
	if max <= 0 {
		g.perShardCap.Store(0)
		return
	}
	per := max / len(g.shards)
	if per < 1 {
		per = 1
	}
	g.perShardCap.Store(int64(per))
}

// SetMaxCorrelated retunes the correlated-history cap at runtime — the
// federation tier's per-shard retention knob (0 = unbounded). Shards trim
// down to the new cap as they next correlate or sweep.
func (g *GPA) SetMaxCorrelated(max int) error {
	if max < 0 {
		return fmt.Errorf("gpa: max correlated %d, want >= 0", max)
	}
	g.storeMaxCorrelated(max)
	return nil
}

// SetClockErrorBound registers a bound on a node's residual clock error
// (for example ntpclock.Syncer.ErrorBound after a sync round, or an
// operator-supplied figure for an unsynchronized node). The correlation
// window for any pair of nodes is widened by the sum of their bounds;
// nodes without a registered bound contribute zero. A non-positive bound
// clears the node's entry.
func (g *GPA) SetClockErrorBound(node simnet.NodeID, bound time.Duration) {
	g.boundsMu.Lock()
	defer g.boundsMu.Unlock()
	var cur map[simnet.NodeID]time.Duration
	if p := g.clockBounds.Load(); p != nil {
		cur = *p
	}
	next := make(map[simnet.NodeID]time.Duration, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if bound <= 0 {
		delete(next, node)
	} else {
		next[node] = bound
	}
	var max time.Duration
	for _, v := range next {
		if v > max {
			max = v
		}
	}
	g.maxClockBound.Store(int64(max))
	if len(next) == 0 {
		g.clockBounds.Store(nil)
		return
	}
	g.clockBounds.Store(&next)
}

// ClockErrorBound reports the bound registered for a node (0 = none).
func (g *GPA) ClockErrorBound(node simnet.NodeID) time.Duration {
	if p := g.clockBounds.Load(); p != nil {
		return (*p)[node]
	}
	return 0
}

func (g *GPA) shardFor(key simnet.FlowKey) *shard {
	return &g.shards[hashFlow(key)&g.mask]
}

// shardForNode routes flow-less state (aggregate deltas) to a stable
// shard for the node.
func (g *GPA) shardForNode(node simnet.NodeID) *shard {
	return &g.shards[simnet.NodeShardHash(node)&g.mask]
}

// oneRow recycles the single-row batches Ingest wraps records in.
var oneRow = sync.Pool{New: func() any { return core.NewRecordColumns(1) }}

// Ingest feeds one interaction record: a one-row adapter over
// IngestColumns for callers that hold rows (offline replay of a dump,
// tests). Live traffic arrives as columnar batches and calls
// IngestColumns directly.
func (g *GPA) Ingest(rec core.Record) {
	cols := oneRow.Get().(*core.RecordColumns)
	cols.Reset()
	cols.AppendRow(rec)
	g.IngestColumns(cols)
	oneRow.Put(cols)
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// trimLimit is the history length past which trimCorrelatedLocked cuts a
// stripe back to its cap.
func trimLimit(perShardCap int) int { return perShardCap + perShardCap/4 }

// nextCorrelatedLocked extends the history by one slot and returns it;
// the caller overwrites every field. A capped history's backing array
// doubles up to trimLimit+1 — the longest it gets before the trim — and
// never past it, so its size is set by MaxCorrelated and not by append's
// growth policy. An unbounded one grows as append grows it.
func (g *GPA) nextCorrelatedLocked(s *shard) *seqE2E {
	n := len(s.correlated)
	switch pc := int(g.perShardCap.Load()); {
	case n < cap(s.correlated):
		s.correlated = s.correlated[:n+1]
	case pc <= 0:
		s.correlated = append(s.correlated, seqE2E{})
	default:
		// max(..., n+1): the cap was lowered and this stripe has not
		// trimmed since.
		size := max(min(2*n, trimLimit(pc)+1), n+1)
		grown := make([]seqE2E, n+1, size)
		copy(grown, s.correlated)
		s.correlated = grown
	}
	return &s.correlated[n]
}

// trimCorrelatedLocked enforces the count cap on one shard's correlated
// history. Hysteresis (trim only past cap+25%, back down to the cap)
// amortizes the O(n) memmove over many ingests instead of shifting one
// slot per correlation at the cap. A backing array more than twice the
// size the cap needs — left by a higher cap SetMaxCorrelated has since
// lowered — is reallocated right-sized, as sweepStaleLocked does for
// pending arrays, so the old high-water array is released.
func (g *GPA) trimCorrelatedLocked(s *shard) {
	pc := int(g.perShardCap.Load())
	if pc <= 0 || len(s.correlated) <= trimLimit(pc) {
		return
	}
	drop := len(s.correlated) - pc
	s.stats.CorrelatedEvicted += uint64(drop)
	if need := trimLimit(pc) + 1; cap(s.correlated) > 2*need {
		shrunk := make([]seqE2E, pc, need)
		copy(shrunk, s.correlated[drop:])
		s.correlated = shrunk
		return
	}
	n := copy(s.correlated, s.correlated[drop:])
	tail := s.correlated[n:]
	for i := range tail {
		tail[i] = seqE2E{} // release the records' string references
	}
	s.correlated = s.correlated[:n]
}

// trimCorrelatedByAgeLocked drops correlated interactions whose
// completion (the later of the two endpoint End times) is older than
// MaxCorrelatedAge. Runs on the amortized sweep cadence, not per ingest.
func (g *GPA) trimCorrelatedByAgeLocked(s *shard) {
	if g.cfg.MaxCorrelatedAge <= 0 {
		return
	}
	cutoff := g.now() - g.cfg.MaxCorrelatedAge
	if cutoff <= 0 {
		return
	}
	kept := s.correlated[:0]
	for _, t := range s.correlated {
		done := t.e2e.Client.End
		if t.e2e.Server.End > done {
			done = t.e2e.Server.End
		}
		if done < cutoff {
			s.stats.CorrelatedEvicted++
			continue
		}
		kept = append(kept, t)
	}
	tail := s.correlated[len(kept):]
	for i := range tail {
		tail[i] = seqE2E{}
	}
	s.correlated = kept
}

// bucketOf is the load bucket a time falls in (floor division, so a
// cutoff before time zero lands in a negative bucket, not bucket 0).
func (g *GPA) bucketOf(t time.Duration) int64 {
	idx := int64(t) / g.bucketWidth
	if t < 0 && int64(t)%g.bucketWidth != 0 {
		idx--
	}
	return idx
}

// oldestLoadBucket is the first bucket the load window still covers.
func (g *GPA) oldestLoadBucket() int64 { return g.bucketOf(g.now() - g.cfg.LoadWindow) }

// sweepStaleLocked drops pending records whose counterpart can no longer
// arrive (older than StaleAfter). Without this, flows whose peer endpoint
// is unmonitored — or whose peer record was dropped under buffer pressure
// — would accumulate in the pending map forever.
func (g *GPA) sweepStaleLocked(s *shard) int {
	g.trimCorrelatedByAgeLocked(s)
	staleAfter := g.cfg.StaleAfter
	if mb := time.Duration(g.maxClockBound.Load()); mb > 0 {
		// Registered clock-error bounds widen pair windows; keep pending
		// records at least twice the widest possible window so a poorly
		// synced pair is not pruned while still correlatable.
		if min := 2 * (g.cfg.CorrelationWindow + 2*mb); staleAfter < min {
			staleAfter = min
		}
	}
	cutoff := g.now() - staleAfter
	if cutoff <= 0 {
		return 0
	}
	pruned := 0
	for key, peers := range s.pending {
		if len(peers) == 0 {
			// Emptied by correlation and not refilled since: the flow has
			// gone quiet, release the entry the hot path kept around.
			delete(s.pending, key)
			continue
		}
		kept := peers[:0]
		for _, p := range peers {
			if p.Start < cutoff {
				pruned++
				continue
			}
			kept = append(kept, p)
		}
		switch {
		case len(kept) == 0:
			delete(s.pending, key)
		case cap(kept) > minPendingCap && len(kept) < cap(kept)/4:
			// A burst grew this flow's backing array; now that it has
			// drained, reallocate right-sized so the high-water array (and
			// every record copy pinned in its tail) is released instead of
			// living as long as the flow does.
			shrunk := make([]core.Record, len(kept))
			copy(shrunk, kept)
			s.pending[key] = shrunk
		default:
			// Zero the dropped tail so shifted-out records release their
			// string references even though the array is retained.
			tail := peers[len(kept):]
			for i := range tail {
				tail[i] = core.Record{}
			}
			s.pending[key] = kept
		}
	}
	if pruned > 0 {
		s.stats.StalePruned += uint64(pruned)
		s.stats.Uncorrelated += uint64(pruned)
	}
	return pruned
}

// PruneStale immediately sweeps every shard for stale pending records and
// reports how many were dropped. The ingest path also sweeps
// incrementally; this entry point exists for periodic maintenance timers
// and deterministic tests.
func (g *GPA) PruneStale() int {
	total := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		total += g.sweepStaleLocked(s)
		s.mu.Unlock()
	}
	return total
}

// IngestAggregate merges a per-class aggregate delta published by a node
// running its LPA at class granularity (dissem.ChannelAggregates). It
// contributes to accounting and class queries but not to per-interaction
// correlation (the node deliberately did not ship individual records).
func (g *GPA) IngestAggregate(node simnet.NodeID, agg core.Aggregate) {
	s := g.shardForNode(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Ingested++
	classes := s.byClass[node]
	if classes == nil {
		classes = make(map[string]*core.Aggregate)
		s.byClass[node] = classes
	}
	cur := classes[agg.Class]
	if cur == nil {
		cur = &core.Aggregate{Class: agg.Class}
		classes[agg.Class] = cur
	}
	cur.Merge(&agg)
}

// correlatedSnapshot copies every stripe's history — the one row copy a
// row-shaped query costs — into completion order (global sequence across
// shards).
func (g *GPA) correlatedSnapshot() []seqE2E {
	var tagged []seqE2E
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		tagged = append(tagged, s.correlated...)
		s.mu.Unlock()
	}
	sort.Slice(tagged, func(i, j int) bool { return tagged[i].seq < tagged[j].seq })
	return tagged
}

// Correlated returns the end-to-end interactions correlated so far, in
// completion order.
func (g *GPA) Correlated() []EndToEnd {
	tagged := g.correlatedSnapshot()
	out := make([]EndToEnd, len(tagged))
	for i := range tagged {
		out[i] = tagged[i].e2e
	}
	return out
}

// SeqEndToEnd is an EndToEnd tagged with its completion sequence number —
// the machine-readable row form "jcorrelated" serves.
type SeqEndToEnd struct {
	Seq uint64 `json:"seq"`
	EndToEnd
}

// CorrelatedSeq returns the correlated interactions with their sequence
// tags, in completion order.
func (g *GPA) CorrelatedSeq() []SeqEndToEnd { return g.correlatedSeqTail(0) }

// correlatedSeqTail is CorrelatedSeq cut to the last n (0 = all).
func (g *GPA) correlatedSeqTail(n int) []SeqEndToEnd {
	tagged := g.correlatedSnapshot()
	if n > 0 && len(tagged) > n {
		tagged = tagged[len(tagged)-n:]
	}
	out := make([]SeqEndToEnd, len(tagged))
	for i := range tagged {
		out[i] = SeqEndToEnd{Seq: tagged[i].seq, EndToEnd: tagged[i].e2e}
	}
	return out
}

// ClassAggregatesAll returns the per-class aggregates of every reporting
// node, merged across shards (the bulk form of ClassAggregates, used by
// federation frontends to merge class state in one round trip).
func (g *GPA) ClassAggregatesAll() map[simnet.NodeID]map[string]core.Aggregate {
	out := make(map[simnet.NodeID]map[string]core.Aggregate)
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for node, classes := range s.byClass {
			m := out[node]
			if m == nil {
				m = make(map[string]core.Aggregate)
				out[node] = m
			}
			for class, agg := range classes {
				mergeClass(m, class, agg)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// mergeClass folds agg into m's aggregate for class.
func mergeClass(m map[string]core.Aggregate, class string, agg *core.Aggregate) {
	cur := m[class]
	cur.Class = class
	cur.Merge(agg)
	m[class] = cur
}

// PendingCount returns records still awaiting their counterpart.
func (g *GPA) PendingCount() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for _, p := range s.pending {
			n += len(p)
		}
		s.mu.Unlock()
	}
	return n
}

// ClassAggregates returns the per-class aggregates at a node, merged
// across shards.
func (g *GPA) ClassAggregates(node simnet.NodeID) map[string]core.Aggregate {
	out := make(map[string]core.Aggregate)
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for class, agg := range s.byClass[node] {
			mergeClass(out, class, agg)
		}
		s.mu.Unlock()
	}
	return out
}

// Load summarizes a server's recent behaviour for schedulers.
type Load struct {
	Node simnet.NodeID
	// Interactions completed within the load window.
	Interactions int
	// MeanResidence, MeanKernel, MeanBufferWait over the window. High
	// buffer wait is the paper's signal that a node is falling behind.
	MeanResidence  time.Duration
	MeanKernel     time.Duration
	MeanBufferWait time.Duration
}

// ServerLoad reports a node's load over the sliding window, merged across
// shards: the records completed from the start of the bucket the window's
// cutoff falls in. Nodes with no recent records return a zero Load
// (treated as idle). It reads the windows and changes nothing.
func (g *GPA) ServerLoad(node simnet.NodeID) Load {
	l := Load{Node: node}
	var res, ker, buf time.Duration
	count := 0
	oldest := g.oldestLoadBucket()
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		if nw := s.byNode[node]; nw != nil {
			for j := len(nw.buckets) - 1; j >= 0 && nw.buckets[j].idx >= oldest; j-- {
				b := &nw.buckets[j]
				res += b.res
				ker += b.ker
				buf += b.buf
				count += int(b.n)
			}
		}
		s.mu.Unlock()
	}
	if count == 0 {
		return l
	}
	n := time.Duration(count)
	l.Interactions = count
	l.MeanResidence = res / n
	l.MeanKernel = ker / n
	l.MeanBufferWait = buf / n
	return l
}

// Nodes lists nodes that have reported records, sorted.
func (g *GPA) Nodes() []simnet.NodeID {
	seen := make(map[simnet.NodeID]struct{})
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for id := range s.byNode {
			seen[id] = struct{}{}
		}
		for id := range s.byClass {
			seen[id] = struct{}{}
		}
		s.mu.Unlock()
	}
	out := make([]simnet.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StatsSnapshot returns analyzer counters summed across shards.
func (g *GPA) StatsSnapshot() Stats {
	var st Stats
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		st.Ingested += s.stats.Ingested
		st.Correlated += s.stats.Correlated
		st.Uncorrelated += s.stats.Uncorrelated
		st.StalePruned += s.stats.StalePruned
		st.CorrelatedEvicted += s.stats.CorrelatedEvicted
		s.mu.Unlock()
	}
	st.Dumps = g.dumps.Load()
	return st
}

// Dump writes the correlated interactions as a page stream ("the GPA
// periodically dumps its information onto local disk, which can be used
// later for purposes of auditing, workload prediction, and system
// modeling"; LoadDump reads it back) and returns how many the snapshot it
// wrote held.
func (g *GPA) Dump(w io.Writer) (int, error) { return g.dump(w, false) }

// DumpAndTruncate writes the correlated history as Dump does and clears
// it from memory — the retention companion to Dump for long-running
// analyzers: periodic dumps move history to disk while the in-memory
// working set stays bounded. The history is detached from the shards
// before writing, so a write error loses those interactions from memory
// (they are reported in the returned count alongside the error).
// Aggregates, load windows, and counters are untouched.
func (g *GPA) DumpAndTruncate(w io.Writer) (int, error) { return g.dump(w, true) }

func (g *GPA) dump(w io.Writer, truncate bool) (int, error) {
	sc := pagePool.Get().(*pageScratch)
	defer pagePool.Put(sc)
	sc.gather(g, truncate)
	g.dumps.Add(1)
	return len(sc.order), sc.writePages(w)
}

package scenario

import (
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
)

// runner holds one scenario execution's state.
type runner struct {
	spec Spec
	eng  *sim.Engine
	net  *simnet.Network
	rng  *sim.RNG

	broker  *pubsub.Broker
	nodes   []*fleetNode
	clients int
	servers int
	linkCfg map[[2]simnet.NodeID]simnet.LinkConfig

	shards []*shardSub

	chaosLog []ChaosApplied

	reqSeq       uint64
	reqLatency   core.Histogram
	queryLatency core.Histogram
	queriesTotal uint64
	queriesPart  uint64
}

// Run executes one scenario and returns its report. The run is entirely
// virtual-time: same spec + same seed => byte-identical report.
func Run(spec Spec) (*Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return nil, err
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()

	eng := sim.NewEngine()
	r := &runner{
		spec:    spec,
		eng:     eng,
		net:     simnet.NewNetwork(eng),
		rng:     sim.NewRNG(spec.Seed),
		broker:  broker,
		linkCfg: make(map[[2]simnet.NodeID]simnet.LinkConfig),
	}

	// Analysis tier: one single-shard GPA per scenario shard, fed by the
	// broker's send queue under the sim's clock. Flow sharding uses the same
	// canonical ShardHash as the dissemination router, so both endpoints
	// of an interaction always land on the same shard's analyzer.
	r.shards = make([]*shardSub, spec.Monitor.Shards)
	for i := range r.shards {
		g := gpa.New(gpa.Config{
			CorrelationWindow: spec.Monitor.CorrelationWindow,
			LoadWindow:        time.Second,
			Shards:            1,
		}, eng.Now)
		r.shards[i] = newShardSub(i, eng, g, &spec.Monitor)
	}
	broker.Subscribe(dissem.ChannelInteractions, func(rec any) {
		if cols, ok := rec.(*core.RecordColumns); ok {
			r.route(cols)
		}
	})

	if err := r.buildFleet(); err != nil {
		return nil, err
	}
	r.attachMonitoring()
	r.startWorkloads()
	r.scheduleChaos()
	r.scheduleQueries()

	if err := eng.RunUntil(spec.Duration + spec.Grace); err != nil {
		return nil, err
	}
	return r.snapshot(), nil
}

// route fans one published batch out to the shard subscribers with the
// broker's own partition sweep, shards in index order, and its full-queue
// decision from each subscriber's drain estimate. Routed frames are copies
// — the source batch is only valid during the subscriber callback.
func (r *runner) route(cols *core.RecordColumns) {
	f := &core.RecordColumns{}
	for sh, s := range r.shards {
		sel := core.ShardSelector{Index: uint32(sh), Count: uint32(len(r.shards))}
		if sel.Gather(f, cols); f.Len() > 0 {
			s.offer(f, s.est.ShouldBlock(s.m.BlockTimeout, dissem.ChannelInteractions))
			f = &core.RecordColumns{}
		}
	}
}

// scheduleQueries arms the periodic modeled status query: a fan-out over
// every shard whose latency is the slowest live shard's backlog drain
// (plus fixed per-shard and merge costs), or the query timeout when a
// shard is dead — in which case the result is partial.
func (r *runner) scheduleQueries() {
	iv := r.spec.Monitor.QueryInterval
	if iv <= 0 {
		return
	}
	var tick func()
	tick = func() {
		if r.eng.Now() > r.spec.Duration {
			return
		}
		r.runQuery()
		r.eng.After(iv, tick)
	}
	r.eng.After(iv, tick)
}

// Fixed cost model for the modeled query fan-out.
const (
	queryShardBase = 500 * time.Microsecond
	queryMergeCost = 200 * time.Microsecond
)

func (r *runner) runQuery() {
	var worst time.Duration
	partial := false
	for _, s := range r.shards {
		if s.state == dead {
			partial = true
			if r.spec.Monitor.QueryTimeout > worst {
				worst = r.spec.Monitor.QueryTimeout
			}
			continue
		}
		backlog := s.q.Len() // plus the frame in flight
		if s.inflight != 0 {
			backlog++
		}
		lat := queryShardBase + time.Duration(backlog)*s.effDrain()
		if lat > worst {
			worst = lat
		}
	}
	r.queriesTotal++
	if partial {
		r.queriesPart++
	}
	r.queryLatency.Record(worst + queryMergeCost)
}

// snapshot freezes every counter into the report and closes the
// accounting identities.
func (r *runner) snapshot() *Report {
	spec := &r.spec
	rep := &Report{
		Schema:   ReportSchema,
		Name:     spec.Name,
		Seed:     spec.Seed,
		Duration: spec.Duration.String(),
	}

	// Fleet shape.
	rep.Fleet = FleetReport{
		Nodes:   len(r.nodes),
		Clients: r.clients,
		Servers: r.servers,
		Links:   r.net.NumLinks(),
		Startup: spec.Fleet.Startup,
	}
	for i := range spec.Templates {
		tpl := &spec.Templates[i]
		count := 0
		for _, fn := range r.nodes {
			if fn.tpl == tpl {
				count++
			}
		}
		rep.Fleet.Templates = append(rep.Fleet.Templates, TemplateCount{Name: tpl.Name, Nodes: count})
	}
	for _, fn := range r.nodes {
		if fn.crashed {
			rep.Fleet.Crashed++
		}
	}

	// Workload identity: dispatched = completed + timedOut + inFlight.
	w := &rep.Workload
	for _, fn := range r.nodes {
		w.Arrivals += fn.wl.arrivals
		w.Dispatched += fn.wl.dispatched
		w.BusyDropped += fn.wl.busyDropped
		w.Completed += fn.wl.completed
		w.TimedOut += fn.wl.timedOut
		w.StaleReps += fn.wl.stale
		for _, slot := range fn.slots {
			if slot.busy {
				w.InFlight++
			}
		}
	}
	w.Latency = latencyReport(&r.reqLatency)
	rep.UnaccountedRequests = int64(w.Dispatched) - int64(w.Completed) - int64(w.TimedOut) - int64(w.InFlight)

	// Network tier: per-cause drop attribution from the link counters.
	net := &rep.Net
	net.Links = r.net.NumLinks()
	r.net.ForEachLink(func(l *simnet.Link) {
		pkts, bytes, dropped := l.Stats()
		net.PacketsDelivered += pkts
		net.BytesDelivered += bytes
		net.Dropped += dropped
		d := l.Drops()
		net.DroppedDown += d.Down
		net.DroppedQueue += d.Queue
		net.DroppedLoss += d.Loss
		net.DroppedCut += d.Cut
	})
	for _, fn := range r.nodes {
		net.SocketDrops += fn.os.Stats().SockDrops
	}

	// Capture tier identity: interactions = published + publish drops +
	// buffer drops + window residue + buffer residue.
	m := &rep.Monitor
	for _, fn := range r.nodes {
		m.EventsEmitted += fn.os.Hub().StatsSnapshot().Emitted
		m.Interactions += fn.lpa.Stats().Interactions
		bufDrops, _ := fn.lpa.Buffers().Stats()
		m.BufferDrops += bufDrops
		ds := fn.daemon.Stats()
		m.RecordsPublished += ds.RecordsPublished
		m.PublishDropped += ds.RecordsDropped
		m.WindowResidual += uint64(fn.lpa.Window().Len())
		bufs := fn.lpa.Buffers()
		for i := 0; i < bufs.NumCPUs(); i++ {
			m.BufferResidual += uint64(bufs.Buffer(i).Len())
		}
	}
	captureUnaccounted := int64(m.Interactions) -
		int64(m.RecordsPublished) - int64(m.PublishDropped) - int64(m.BufferDrops) -
		int64(m.WindowResidual) - int64(m.BufferResidual)

	// Fan-out tier identity: offered = delivered + attributed drops +
	// queued residue; and everything published was offered to a shard.
	f := &rep.Fanout
	var correlatedPairs uint64
	for _, s := range r.shards {
		gs := s.g.StatsSnapshot()
		sr := ShardReport{
			Index:           s.idx,
			Offered:         s.offered,
			Delivered:       s.q.Counts.Popped - s.inflight,
			DroppedOverflow: s.q.Counts.Refused + s.q.Counts.EvictedOldest,
			DroppedDetached: s.lost[detached],
			DroppedEvicted:  s.lost[evicted],
			DroppedDead:     s.lost[dead],
			QueuedAtEnd:     s.queuedRecords(),
			BlockAdmits:     s.blockAdmits,
			BlockedUS:       int64(s.blockedFor / time.Microsecond),
			Flaps:           s.flaps,
			Evicted:         s.state == evicted,
			Dead:            s.state == dead,

			Ingested:          gs.Ingested,
			Correlated:        gs.Correlated,
			PendingEvicted:    gs.Uncorrelated,
			StalePruned:       gs.StalePruned,
			CorrelatedEvicted: gs.CorrelatedEvicted,
		}
		rep.Shards = append(rep.Shards, sr)
		f.Offered += sr.Offered
		f.Delivered += sr.Delivered
		f.DroppedOverflow += sr.DroppedOverflow
		f.DroppedDetached += sr.DroppedDetached
		f.DroppedEvicted += sr.DroppedEvicted
		f.DroppedDead += sr.DroppedDead
		f.QueuedAtEnd += sr.QueuedAtEnd
		if sr.Dead {
			f.DeadShards++
		}
		if sr.Evicted {
			f.EvictedShards++
		}
		correlatedPairs += gs.Correlated
	}
	fanUnaccounted := int64(f.Offered) - int64(f.Delivered) -
		int64(f.DroppedOverflow) - int64(f.DroppedDetached) -
		int64(f.DroppedEvicted) - int64(f.DroppedDead) - int64(f.QueuedAtEnd)
	routeUnaccounted := int64(m.RecordsPublished) - int64(f.Offered)
	rep.UnaccountedRecords = captureUnaccounted + routeUnaccounted + fanUnaccounted

	if f.Delivered > 0 {
		rep.CorrelationRatePct = float64(2*correlatedPairs) / float64(f.Delivered) * 100
	}

	rep.Queries = QueryReport{
		Total:   r.queriesTotal,
		Partial: r.queriesPart,
		Latency: latencyReport(&r.queryLatency),
	}
	rep.Chaos = r.chaosLog
	if rep.Chaos == nil {
		rep.Chaos = []ChaosApplied{}
	}
	return rep
}

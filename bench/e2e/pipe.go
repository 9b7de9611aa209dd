package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
)

// pipeCfg is what differs between the two whole-pipeline workloads.
type pipeCfg struct {
	// perTick > 0 makes the generator an open loop: that many interactions
	// every tick, each stamped with the time it was due. 0 is a closed loop
	// bounded by credit.
	perTick int
	// credit bounds flushed-but-not-ingested batches in the closed loop.
	credit int
	// shards > 1 subscribes that many flow-hash shards, each with its own
	// GPA, over plain columnar frames; 1 is a single broadcast subscriber
	// asking for compressed frames, gpad's default.
	shards        int
	maxCorrelated int
}

const (
	pipeFlows = 1024
	pipeTick  = time.Millisecond
)

var saturateCfg = pipeCfg{credit: 16, shards: 1, maxCorrelated: 16384}

// 10 interactions per 1 ms tick is 20 000 records/s, about a third of what
// pipe-saturate sustains: throughput is pinned, cost and staleness can move.
var pacedCfg = pipeCfg{perTick: 10, shards: 2, maxCorrelated: 4096}

// pipe drives kprof -> LPA -> per-CPU buffer -> dissem -> pubsub over
// loopback TCP -> GPA, one generator goroutine on the capture side and one
// consumer goroutine per subscriber.
type pipe struct {
	cfg pipeCfg
	clk *freezableClock
	gen *scriptGen
	tr  *tracer

	hubs    [2]*kprof.Hub // client node, server node
	lpas    [2]*core.LPA
	daemons [2]*dissem.Daemon
	broker  *pubsub.Broker
	lis     *countingListener
	subs    []*pubsub.Subscriber
	gpas    []*gpa.GPA
	plan    *pbio.Plan

	consumers sync.WaitGroup
	rec       recorder
	credit    chan struct{}
	dead      chan struct{} // closed on the first consumer error
	deadOnce  sync.Once
	deadErr   error // written before dead closes, read after
	closing   atomic.Bool

	flushedRecs  atomic.Uint64
	ingestedRecs atomic.Uint64
	framesRecv   atomic.Uint64

	// Generator-goroutine state.
	creditWait int64 // ns
	late       int64 // ns the current tick started after it was due
	lastStamp  time.Duration
	lateness   []float64 // ms, one per tick of the current window

	// sample keeps copies of a few flushed batches for the offline pbio
	// replays; queueMax is the deepest send queue a traced flush saw.
	sample   []*core.RecordColumns
	queueMax int
}

func newPipe(cfg pipeCfg, seed int64, warmup time.Duration) (workload, error) {
	p := &pipe{
		cfg:  cfg,
		clk:  newFreezableClock(),
		gen:  newScriptGen(seed, pipeFlows),
		dead: make(chan struct{}),
	}
	if cfg.credit > 0 {
		p.credit = make(chan struct{}, cfg.credit)
		for i := 0; i < cfg.credit; i++ {
			p.credit <- struct{}{}
		}
	}

	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return nil, err
	}
	p.plan = reg.PlanFor(reflect.TypeOf(core.Record{}))
	p.broker = pubsub.NewBroker(reg)
	lis, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	p.lis = lis
	go func() { _ = p.broker.Serve(lis) }() // returns nil once Close stops the listener

	hubClock := p.clk.now
	if cfg.perTick > 0 {
		hubClock = p.dueClock
	}
	eng := sim.NewEngine() // the daemons only ever read its clock
	nodes := [2]simnet.NodeID{clientNode, serverNode}
	names := [2]string{"client", "server"}
	for i := range nodes {
		i := i
		p.hubs[i] = kprof.NewHub(nodes[i], hubClock)
		p.daemons[i] = dissem.New(eng, p.broker, nil, dissem.Config{NodeName: names[i], Node: nodes[i]})
		p.lpas[i] = core.NewLPA(p.hubs[i], core.Config{
			OnFull: func(cpu int, batch *core.RecordColumns, release func()) {
				p.onFull(i, cpu, batch, release)
			},
		})
		p.daemons[i].Serve(p.lpas[i])
	}

	subReg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(subReg); err != nil {
		p.close()
		return nil, err
	}
	addr := lis.Addr().String()
	for i := 0; i < cfg.shards; i++ {
		var sub *pubsub.Subscriber
		if cfg.shards == 1 {
			sub, err = pubsub.Dialer{Registry: subReg, Compress: true}.Dial(addr, dissem.ChannelInteractions)
		} else {
			sub, err = pubsub.DialSharded(addr, subReg, i, cfg.shards, dissem.ChannelInteractions)
		}
		if err != nil {
			p.close()
			return nil, err
		}
		p.subs = append(p.subs, sub)
		p.gpas = append(p.gpas, gpa.New(gpa.Config{
			MaxCorrelated: cfg.maxCorrelated,
			LoadWindow:    time.Second,
		}, p.clk.now))
	}
	// Dial returns once the handshake is written; the broker registers the
	// subscriber when it has read it. Publishing earlier would reach no one.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.broker.Subscribers()) < cfg.shards {
		if time.Now().After(deadline) {
			p.close()
			return nil, errors.New("subscribers did not register with the broker within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	for i := range p.subs {
		p.consumers.Add(1)
		go p.consume(i)
	}
	if _, err := p.window(warmup); err != nil {
		p.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return p, nil
}

// dueClock is the open loop's hub clock: real time minus how late the
// current tick started, so every event carries the time it was due and a
// generator stall is charged to the latency of the records it delayed.
// Called only from the generator goroutine, inside Emit.
func (p *pipe) dueClock() time.Duration {
	t := p.clk.now() - time.Duration(p.late)
	if t < p.lastStamp {
		t = p.lastStamp
	}
	p.lastStamp = t
	return t
}

func (p *pipe) fail(err error) {
	p.deadOnce.Do(func() {
		p.deadErr = err
		close(p.dead)
	})
}

func (p *pipe) failure() error {
	select {
	case <-p.dead:
		return p.deadErr
	default:
		return nil
	}
}

// onFull stands between an LPA's full buffer and Daemon.OnFull: it takes a
// credit in the closed loop, counts what was flushed, and in a traced
// window times the call.
func (p *pipe) onFull(node, cpu int, batch *core.RecordColumns, release func()) {
	if p.credit != nil {
		select {
		case <-p.credit:
		default:
			t0 := mono()
			select {
			case <-p.credit:
			case <-p.dead:
			}
			p.creditWait += mono() - t0
		}
	}
	p.flushedRecs.Add(uint64(batch.Len()))
	if !p.tr.on() {
		p.daemons[node].OnFull(cpu, batch, release)
		return
	}
	if len(p.sample) < 16 {
		c := core.NewRecordColumns(batch.Len())
		c.AppendColumns(batch)
		p.sample = append(p.sample, c)
	}
	p.tr.onFull(batch, int64(p.clk.now()), func() { p.daemons[node].OnFull(cpu, batch, release) })
	for _, s := range p.broker.Subscribers() {
		if s.QueueLen > p.queueMax {
			p.queueMax = s.QueueLen
		}
	}
}

// consume is one subscriber's loop: receive a frame, ingest it, time every
// record from its End to now, return the credit.
func (p *pipe) consume(i int) {
	defer p.consumers.Done()
	sub, g := p.subs[i], p.gpas[i]
	for {
		t0 := mono()
		_, rec, err := sub.Recv()
		if err != nil {
			if !p.closing.Load() {
				p.fail(fmt.Errorf("subscriber %d: %w", i, err))
			}
			return
		}
		cols, ok := rec.Value.(*core.RecordColumns)
		if !ok || cols.Len() == 0 {
			p.fail(fmt.Errorf("subscriber %d: received %T, want a non-empty *core.RecordColumns", i, rec.Value))
			return
		}
		t1 := mono()
		g.IngestColumns(cols)
		now := p.clk.now()
		if p.tr.on() {
			p.tr.received(cols, t0, t1, mono())
		}
		p.rec.mu.Lock()
		for _, end := range cols.Ends {
			p.rec.lat = append(p.rec.lat, float64(now-end)/1e6)
		}
		p.rec.done(uint64(cols.Len()))
		p.rec.mu.Unlock()
		p.framesRecv.Add(1)
		p.ingestedRecs.Add(uint64(cols.Len()))
		if p.credit != nil {
			p.credit <- struct{}{}
		}
	}
}

func (p *pipe) window(d time.Duration) (winStats, error) {
	p.creditWait = 0
	p.lateness = p.lateness[:0]

	p.clk.open()
	p.rec.begin()
	start := mono()
	if p.cfg.perTick > 0 {
		p.generatePaced(start, d)
	} else {
		p.generateSaturated(start + int64(d))
	}
	err := p.drain()
	p.rec.end()
	open := time.Duration(mono() - start)
	p.clk.freeze()
	if err != nil {
		return winStats{}, err
	}

	// Drained: the consumers are parked in Recv and the recorder is still.
	ws := winStats{marks: p.rec.marks, lat: p.rec.lat, open: open, creditWait: time.Duration(p.creditWait)}
	if n := len(p.lateness); n > 0 {
		sort.Float64s(p.lateness)
		ws.genLateP99 = p.lateness[(n*99+99)/100-1]
	}
	return ws, nil
}

func (p *pipe) generateSaturated(deadline int64) {
	for mono() < deadline && p.failure() == nil {
		for i := 0; i < 32; i++ {
			p.gen.interaction(p.hubs[0], p.hubs[1])
		}
	}
}

// generatePaced is the open loop. An open-loop generator must keep its
// schedule whatever the program does, but here it is a goroutine beside the
// program's: with every P busy in the consumers' read loops it would wait
// out a 10 ms preemption quantum before each tick. It gets a P of its own
// for the length of the window, as the kernel it stands for has its own CPU.
func (p *pipe) generatePaced(start int64, d time.Duration) {
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + 1)
	defer runtime.GOMAXPROCS(procs)
	ticks := int(d / pipeTick)
	for k := 0; k < ticks && p.failure() == nil; k++ {
		due := start + int64(k)*int64(pipeTick)
		if wait := due - mono(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		p.late = max(mono()-due, 0)
		p.lateness = append(p.lateness, float64(p.late)/1e6)
		for i := 0; i < p.cfg.perTick; i++ {
			p.gen.interaction(p.hubs[0], p.hubs[1])
		}
	}
	p.late = 0
}

// drain waits until every record an LPA flushed has been ingested.
func (p *pipe) drain() error {
	deadline := mono() + int64(drainTimeout)
	for p.ingestedRecs.Load() < p.flushedRecs.Load() {
		if err := p.failure(); err != nil {
			return err
		}
		if mono() > deadline {
			return fmt.Errorf("drain: %d of %d flushed records ingested after %v",
				p.ingestedRecs.Load(), p.flushedRecs.Load(), drainTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return p.failure()
}

func (p *pipe) finish() (finalStats, error) {
	var fs finalStats
	p.clk.open()
	for _, d := range p.daemons {
		d.Stop() // FlushOpen + EvictAll + FlushAll: everything the LPA holds leaves it
	}
	err := p.drain()
	p.clk.freeze()
	if err != nil {
		// Records lost on the way never arrive: that is a failed check,
		// not a broken run. Anything else is.
		if p.failure() != nil {
			return fs, err
		}
		fs.checks = append(fs.checks, err.Error())
	}

	var interactions, bufDrops, correlated, ingested, stale uint64
	var pending int
	for i, l := range p.lpas {
		interactions += l.Stats().Interactions
		drops, _ := l.Buffers().Stats()
		bufDrops += drops
		hs := p.hubs[i].StatsSnapshot()
		fs.check(hs.Emitted == hs.Delivered, "kprof node %d: emitted %d != delivered %d", i, hs.Emitted, hs.Delivered)
	}
	for _, g := range p.gpas {
		st := g.StatsSnapshot()
		correlated += st.Correlated
		ingested += st.Ingested
		stale += st.StalePruned
		pending += g.PendingCount()
	}
	var dissemDropped uint64
	for _, d := range p.daemons {
		dissemDropped += d.Stats().RecordsDropped
	}
	bs := p.broker.Stats()
	flushed := p.flushedRecs.Load()
	emitted := p.hubs[0].StatsSnapshot().Emitted + p.hubs[1].StatsSnapshot().Emitted

	fs.attempted = flushed + bufDrops
	lost := bufDrops + (flushed - min(ingested, flushed))
	unpaired := p.gen.interactions - min(correlated, p.gen.interactions)
	fs.failed = lost + unpaired

	fs.check(emitted == p.gen.events, "kprof.events_emitted %d != script length x interactions %d", emitted, p.gen.events)
	fs.check(interactions == 2*p.gen.interactions, "LPAs closed %d interactions, generator made 2 x %d", interactions, p.gen.interactions)
	fs.check(interactions == flushed+bufDrops, "LPA interactions %d != flushed %d + buffer drops %d", interactions, flushed, bufDrops)
	fs.check(flushed == ingested+dissemDropped+bs.RemoteDropped,
		"flushed %d != ingested %d + dissem dropped %d + remote dropped %d", flushed, ingested, dissemDropped, bs.RemoteDropped)
	fs.check(ingested == p.ingestedRecs.Load(), "gpa ingested %d != records received %d", ingested, p.ingestedRecs.Load())
	fs.check(correlated == p.gen.interactions, "gpa.correlated %d != interactions generated %d", correlated, p.gen.interactions)
	fs.check(pending == 0 && stale == 0, "gpa left %d pending, pruned %d stale", pending, stale)
	fs.check(bs.SlowEvicted == 0 && bs.RemoteFailures == 0, "broker evicted %d subscribers, %d write failures", bs.SlowEvicted, bs.RemoteFailures)
	return fs, nil
}

func (p *pipe) setTracer(t *tracer) {
	p.tr = t
	p.gen.tr = t
}

func (p *pipe) close() {
	p.closing.Store(true)
	for _, s := range p.subs {
		s.Close()
	}
	p.consumers.Wait()
	p.broker.Close()
}

func (p *pipe) layers(m metricSet) {
	for i := range p.hubs {
		hs := p.hubs[i].StatsSnapshot()
		m.add("kprof.events_emitted", float64(hs.Emitted))
		m.add("kprof.events_delivered", float64(hs.Delivered))
		ls := p.lpas[i].Stats()
		drops, switches := p.lpas[i].Buffers().Stats()
		m.add("core.interactions", float64(ls.Interactions))
		m.add("core.dropped_episodes", float64(ls.DroppedEpisodes))
		m.add("core.buffer_drops", float64(drops))
		m.add("core.buffer_switches", float64(switches))
		ds := p.daemons[i].Stats()
		m.add("dissem.batches_published", float64(ds.BatchesPublished))
		m.add("dissem.records_published", float64(ds.RecordsPublished))
		m.add("dissem.records_dropped", float64(ds.RecordsDropped))
	}
	bs := p.broker.Stats()
	m["pubsub.remote_enqueued"] = float64(bs.RemoteEnqueued)
	m["pubsub.remote_dropped"] = float64(bs.RemoteDropped)
	m["pubsub.slow_evicted"] = float64(bs.SlowEvicted)
	m["pubsub.queue_depth_max"] = float64(p.queueMax)
	if frames := p.framesRecv.Load(); frames > 0 {
		m["pubsub.write_syscalls_per_batch"] = float64(p.lis.c.writes.Load()) / float64(frames)
	}
	for _, g := range p.gpas {
		st := g.StatsSnapshot()
		m.add("gpa.ingested", float64(st.Ingested))
		m.add("gpa.correlated", float64(st.Correlated))
		m.add("gpa.stale_pruned", float64(st.StalePruned))
		m.add("gpa.pending", float64(g.PendingCount()))
	}
	if m["gpa.ingested"] > 0 {
		m["gpa.correlated_ratio"] = 2 * m["gpa.correlated"] / m["gpa.ingested"]
	}
	replayPBIO(m, p.plan, p.sample, p.cfg.shards == 1)
}

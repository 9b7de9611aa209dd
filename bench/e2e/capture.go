package main

import (
	"fmt"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
)

// cpaSource is the socket-buffer-residence outlier detector of
// examples/custom-analyzer, the analyzer the paper's operators would
// install. "ev" is the kernel event; for net_user_read events ev.aux
// carries the residence in nanoseconds.
const cpaSource = `
static int   n      = 0;
static float sum_ns = 0.0;

if (ev.type != "net_user_read") { return 0; }
n++;
sum_ns += ev.aux;
float mean = sum_ns / n;
if (n > 8 && ev.aux > mean * 2.0) {
	emit("latency.alerts", ev.aux);
}
return n;
`

const (
	// captureFlows is beyond the flow table's initial 256 slots, so the
	// table has grown and probes miss the cache.
	captureFlows = 16384
	// chunkInteractions is the unit whose duration is the workload's
	// latency: long enough to time cheaply, short enough that the one chunk
	// in ~50 that triggers a buffer flush stands out at p99.
	chunkInteractions = 10
	// chunksPerMark spaces the progress marks about a millisecond apart.
	chunksPerMark = 40
)

// capture is the capture side alone, on one goroutine and with no wire:
// every event of the script into one hub carrying the interaction LPA, the
// system-call LPA and a verified, compiled CPA, flushed through dissem into
// a broker whose only subscriber is local and counts rows.
type capture struct {
	clk *freezableClock
	gen *scriptGen
	tr  *tracer

	hub    *kprof.Hub
	lpa    *core.LPA
	sys    *core.SyscallLPA
	cpa    *core.CPA
	daemon *dissem.Daemon
	broker *pubsub.Broker

	rows    uint64 // rows the local subscriber saw
	flushed uint64 // rows the LPA buffers handed to OnFull
	rec     recorder
}

func newCapture(seed int64, warmup time.Duration) (workload, error) {
	c := &capture{clk: newFreezableClock(), gen: newScriptGen(seed, captureFlows)}
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return nil, err
	}
	c.broker = pubsub.NewBroker(reg)
	c.broker.Subscribe(dissem.ChannelInteractions, func(rec any) {
		if cols, ok := rec.(*core.RecordColumns); ok {
			c.rows += uint64(cols.Len())
		}
	})
	c.hub = kprof.NewHub(serverNode, c.clk.now)
	c.daemon = dissem.New(sim.NewEngine(), c.broker, nil, dissem.Config{NodeName: "server", Node: serverNode})
	c.lpa = core.NewLPA(c.hub, core.Config{OnFull: c.onFull})
	c.daemon.Serve(c.lpa)
	c.sys = core.NewSyscallLPA(c.hub)
	cpa, err := core.NewCPA(c.hub, "latency-watch", cpaSource, kprof.MaskOf(kprof.EvNetUserRead), nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.cpa = cpa
	if _, err := c.window(warmup); err != nil {
		c.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *capture) onFull(cpu int, batch *core.RecordColumns, release func()) {
	c.flushed += uint64(batch.Len())
	if !c.tr.on() {
		c.daemon.OnFull(cpu, batch, release)
		return
	}
	c.tr.onFull(batch, int64(c.clk.now()), func() { c.daemon.OnFull(cpu, batch, release) })
}

func (c *capture) window(d time.Duration) (winStats, error) {
	c.clk.open()
	c.rec.begin()
	start := mono()
	deadline := start + int64(d)
	for t0 := start; t0 < deadline; {
		ev0 := c.gen.events
		for k := 0; k < chunksPerMark; k++ {
			for i := 0; i < chunkInteractions; i++ {
				c.gen.interaction(c.hub, c.hub)
			}
			t1 := mono()
			c.rec.lat = append(c.rec.lat, float64(t1-t0)/1e6)
			t0 = t1
		}
		c.rec.done(c.gen.events - ev0)
	}
	c.rec.end()
	open := time.Duration(mono() - start)
	c.clk.freeze()
	return winStats{marks: c.rec.marks, lat: c.rec.lat, open: open}, nil
}

func (c *capture) finish() (finalStats, error) {
	var fs finalStats
	c.clk.open()
	c.daemon.Stop()
	c.clk.freeze()

	hs := c.hub.StatsSnapshot()
	ls := c.lpa.Stats()
	drops, _ := c.lpa.Buffers().Stats()
	runs, errs, lastErr := c.cpa.Stats()
	n := c.gen.interactions
	// The LPA takes every event of the script; the system-call LPA and the
	// CPA each take two per interaction.
	wantDelivered := c.gen.events + 4*n

	fs.attempted = c.gen.events
	fs.failed = c.gen.events - min(hs.Emitted, c.gen.events) + errs + drops + n - min(c.rows, n)
	fs.check(hs.Emitted == c.gen.events, "kprof.events_emitted %d != script length x interactions %d", hs.Emitted, c.gen.events)
	fs.check(hs.Delivered == wantDelivered, "kprof.events_delivered %d != %d", hs.Delivered, wantDelivered)
	fs.check(c.sys.Events() == 2*n, "syscall LPA saw %d events, want %d", c.sys.Events(), 2*n)
	fs.check(runs == 2*n && errs == 0, "CPA ran %d times with %d errors (last: %v), want %d and 0", runs, errs, lastErr, 2*n)
	fs.check(ls.Interactions == n, "LPA closed %d interactions, generator made %d", ls.Interactions, n)
	fs.check(ls.Interactions == c.flushed+drops, "LPA interactions %d != flushed %d + buffer drops %d", ls.Interactions, c.flushed, drops)
	fs.check(c.flushed == c.rows+c.daemon.Stats().RecordsDropped, "flushed %d != rows delivered %d + dissem dropped %d",
		c.flushed, c.rows, c.daemon.Stats().RecordsDropped)
	fs.check(ls.DroppedEpisodes == 0, "LPA dropped %d handling episodes", ls.DroppedEpisodes)
	return fs, nil
}

func (c *capture) setTracer(t *tracer) {
	c.tr = t
	c.gen.tr = t
}

func (c *capture) close() { c.broker.Close() }

func (c *capture) layers(m metricSet) {
	hs := c.hub.StatsSnapshot()
	ls := c.lpa.Stats()
	drops, switches := c.lpa.Buffers().Stats()
	runs, errs, _ := c.cpa.Stats()
	ds := c.daemon.Stats()
	m["kprof.events_emitted"] = float64(hs.Emitted)
	m["kprof.events_delivered"] = float64(hs.Delivered)
	m["core.interactions"] = float64(ls.Interactions)
	m["core.dropped_episodes"] = float64(ls.DroppedEpisodes)
	m["core.buffer_drops"] = float64(drops)
	m["core.buffer_switches"] = float64(switches)
	m["ecode.cpa_runs"] = float64(runs)
	m["ecode.cpa_errors"] = float64(errs)
	m["dissem.batches_published"] = float64(ds.BatchesPublished)
	m["dissem.records_published"] = float64(ds.RecordsPublished)
	m["dissem.records_dropped"] = float64(ds.RecordsDropped)
}

// cpaCost is what the CPA adds to one event: the capture side with the
// analyzer installed minus the same without, in alternating slices so that
// a slow stretch of the machine falls on both.
func cpaCost(seed int64, d time.Duration) (float64, error) {
	type side struct {
		hub *kprof.Hub
		gen *scriptGen
		ns  int64
	}
	var sides [2]side
	for i := range sides {
		clk := newFreezableClock()
		clk.open()
		hub := kprof.NewHub(serverNode, clk.now)
		core.NewLPA(hub, core.Config{})
		core.NewSyscallLPA(hub)
		if i == 0 {
			if _, err := core.NewCPA(hub, "latency-watch", cpaSource, kprof.MaskOf(kprof.EvNetUserRead), nil); err != nil {
				return 0, err
			}
		}
		sides[i] = side{hub: hub, gen: newScriptGen(seed, captureFlows)}
	}
	const slices = 8
	for s := 0; s < slices; s++ {
		sd := &sides[s%2]
		start := mono()
		deadline := start + int64(d)/slices
		for mono() < deadline {
			for i := 0; i < 32; i++ {
				sd.gen.interaction(sd.hub, sd.hub)
			}
		}
		sd.ns += mono() - start
	}
	with := float64(sides[0].ns) / float64(sides[0].gen.events)
	without := float64(sides[1].ns) / float64(sides[1].gen.events)
	return with - without, nil
}

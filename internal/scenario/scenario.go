// Package scenario is the declarative chaos & scale harness: seeded
// fleet generation from weighted node templates, startup patterns, and a
// chaos schedule (node crashes, link partitions and degradation, lossy
// links, slow/flapping subscribers, GPA shard death), all executed on the
// deterministic sim engine. One seed fixes every random choice — fleet
// layout, workload arrivals, chaos targets, injected loss — so a run is
// reproducible bit for bit and its machine-readable report
// (BENCH_scenario_<name>.json) can be regression-guarded byte for byte.
package scenario

import (
	"fmt"
	"time"
)

// Spec is one complete scenario: a fleet, a monitoring plane, and a chaos
// schedule. Zero values take defaults (see (*Spec).Normalize).
type Spec struct {
	// Name labels the report file: BENCH_scenario_<name>.json.
	Name string
	// Seed drives every random choice in the run.
	Seed int64
	// Duration is how long the workload generates requests. After it, the
	// run keeps simulating for Grace so in-flight requests resolve and
	// monitoring buffers drain before counters are snapshotted.
	Duration time.Duration
	// Grace is the post-workload settle period.
	Grace time.Duration

	Fleet     FleetSpec
	Templates []Template
	Monitor   MonitorSpec
	Chaos     []ChaosEvent
	Guard     Guard
}

// FleetSpec sizes and shapes the fleet.
type FleetSpec struct {
	// Nodes is the total fleet size (clients + servers).
	Nodes int
	// Startup is the arrival pattern: "instant", "linear", "exponential",
	// or "wave".
	Startup string
	// StartupSpan is the window over which non-instant startups spread.
	StartupSpan time.Duration
	// Waves is the number of batches for the "wave" pattern.
	Waves int
	// PeersPerClient is how many distinct servers each client load
	// balances across.
	PeersPerClient int
}

// Template is one weighted node archetype. Node i's template is drawn
// from the weight distribution with the fleet RNG.
type Template struct {
	// Name labels the template in reports.
	Name string
	// Weight is the sampling weight (relative, > 0).
	Weight int
	// Role is "client" or "server".
	Role string
	// CPUs is the node's processor count (per-CPU LPA buffers scale with
	// it).
	CPUs int

	// Client knobs.

	// Rate is mean request arrivals per second (Poisson).
	Rate float64
	// ReqSize and RespSize are request/response payload bytes.
	ReqSize  int
	RespSize int
	// Slots is the number of concurrent outstanding requests.
	Slots int
	// Timeout bounds each request's reply wait (SO_RCVTIMEO).
	Timeout time.Duration

	// Server knobs.

	// Workers is the number of single-threaded worker processes.
	Workers int
	// ServiceTime is the per-request compute burst.
	ServiceTime time.Duration

	// Link knobs (applied to every link the node's pairs provision).

	// Bandwidth in bits/s; Propagation one-way; QueueLimit caps the
	// serialization queue (0 = uncapped).
	Bandwidth   float64
	Propagation time.Duration
	QueueLimit  int

	// Monitoring knobs.

	// FlushInterval is the dissemination daemon's flush period.
	FlushInterval time.Duration
	// BufferCap is the per-CPU LPA double-buffer capacity (records).
	BufferCap int
	// WindowSize is the LPA's recent-interaction window.
	WindowSize int
}

// MonitorSpec shapes the global analysis tier: how many GPA shards the
// record stream fans out to and how each shard's subscriber behaves — its
// send queue is pubsub's own, driven by the sim engine so that chaos
// against it stays deterministic.
type MonitorSpec struct {
	// Shards is the number of GPA shard subscribers.
	Shards int
	// QueueDepth is each shard subscriber's frame-queue capacity.
	QueueDepth int
	// DrainPerFrame is how long a healthy subscriber takes to ingest one
	// frame; slow-subscriber chaos multiplies it.
	DrainPerFrame time.Duration
	// BlockTimeout bounds a publisher's wait on a full queue (the broker's
	// pubsub.DrainEstimate decides whether it waits).
	BlockTimeout time.Duration
	// EvictAfter disconnects a subscriber after this many consecutive
	// overflows (0 = never).
	EvictAfter int
	// CorrelationWindow is the GPA's pairing window.
	CorrelationWindow time.Duration
	// QueryInterval is how often the modeled end-to-end status query
	// fans out over the shards (0 disables queries).
	QueryInterval time.Duration
	// QueryTimeout is the latency charged for a dead shard (the fan-out
	// waits this long before returning a partial result).
	QueryTimeout time.Duration
}

// Chaos event kinds.
const (
	ChaosNodeCrash = "node-crash" // crash Count nodes: workload stops, links fail
	ChaosPartition = "partition"  // cut links crossing a Fraction split; heal by reconnect after Duration
	ChaosLinkDown  = "link-down"  // fail Count node pairs for Duration
	ChaosLoss      = "loss"       // Rate packet loss on Count pairs for Duration
	ChaosDegrade   = "degrade"    // scale Count pairs' bandwidth by Factor for Duration
	ChaosSlowSub   = "slow-subscriber"
	ChaosFlapSub   = "flap-subscriber"
	ChaosShardDie  = "shard-death"
)

// ChaosEvent is one scheduled fault. Which fields matter depends on Kind;
// unused fields are ignored.
type ChaosEvent struct {
	// At is when the fault fires (virtual time from run start).
	At time.Duration
	// Kind is one of the Chaos* constants.
	Kind string
	// Duration is how long the fault lasts (faults with a natural end).
	Duration time.Duration
	// Count is how many nodes/pairs to hit (node-crash, link-down, loss,
	// degrade).
	Count int
	// Fraction sizes one side of a partition (0 < f < 1; default 0.5).
	Fraction float64
	// Rate is the packet-loss probability for "loss".
	Rate float64
	// Factor scales bandwidth ("degrade", < 1 slows) or the subscriber
	// drain time ("slow-subscriber", > 1 slows).
	Factor float64
	// Period is the flap half-cycle for "flap-subscriber".
	Period time.Duration
	// Shard picks the target subscriber (-1 = seeded random).
	Shard int
}

// Guard is the report acceptance policy applied by Check.
type Guard struct {
	// MinCorrelationRate is the minimum fraction of delivered records the
	// GPA must pair end to end (0 disables).
	MinCorrelationRate float64
	// MaxTimeoutFraction bounds timed-out requests over dispatched
	// (0 disables; chaos runs set it loosely).
	MaxTimeoutFraction float64
}

// Normalize fills defaults and validates. It is idempotent.
func (s *Spec) Normalize() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name required")
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Grace <= 0 {
		s.Grace = time.Second
	}
	if s.Fleet.Nodes <= 1 {
		return fmt.Errorf("scenario %s: fleet.nodes must be > 1, got %d", s.Name, s.Fleet.Nodes)
	}
	switch s.Fleet.Startup {
	case "":
		s.Fleet.Startup = "instant"
	case "instant", "linear", "exponential", "wave":
	default:
		return fmt.Errorf("scenario %s: unknown startup pattern %q", s.Name, s.Fleet.Startup)
	}
	if s.Fleet.StartupSpan <= 0 {
		s.Fleet.StartupSpan = s.Duration / 4
	}
	if s.Fleet.Waves <= 0 {
		s.Fleet.Waves = 4
	}
	if s.Fleet.PeersPerClient <= 0 {
		s.Fleet.PeersPerClient = 2
	}
	if len(s.Templates) == 0 {
		return fmt.Errorf("scenario %s: at least one template required", s.Name)
	}
	var haveClient, haveServer bool
	for i := range s.Templates {
		t := &s.Templates[i]
		if t.Name == "" {
			t.Name = fmt.Sprintf("tpl%d", i)
		}
		if t.Weight <= 0 {
			t.Weight = 1
		}
		switch t.Role {
		case "client":
			haveClient = true
		case "server":
			haveServer = true
		default:
			return fmt.Errorf("scenario %s: template %s: role must be client or server, got %q",
				s.Name, t.Name, t.Role)
		}
		if t.CPUs <= 0 {
			t.CPUs = 1
		}
		if t.Rate <= 0 {
			t.Rate = 2
		}
		if t.ReqSize <= 0 {
			t.ReqSize = 512
		}
		if t.RespSize <= 0 {
			t.RespSize = 1024
		}
		if t.Slots <= 0 {
			t.Slots = 4
		}
		if t.Timeout <= 0 {
			t.Timeout = 250 * time.Millisecond
		}
		if t.Workers <= 0 {
			t.Workers = 4
		}
		if t.ServiceTime <= 0 {
			t.ServiceTime = 2 * time.Millisecond
		}
		if t.Bandwidth <= 0 {
			t.Bandwidth = 100e6
		}
		if t.Propagation <= 0 {
			t.Propagation = 200 * time.Microsecond
		}
		if t.FlushInterval <= 0 {
			t.FlushInterval = 100 * time.Millisecond
		}
		if t.BufferCap <= 0 {
			t.BufferCap = 64
		}
		if t.WindowSize <= 0 {
			t.WindowSize = 32
		}
	}
	if !haveClient || !haveServer {
		return fmt.Errorf("scenario %s: templates must include at least one client and one server role", s.Name)
	}
	m := &s.Monitor
	if m.Shards <= 0 {
		m.Shards = 4
	}
	if m.QueueDepth <= 0 {
		m.QueueDepth = 64
	}
	if m.DrainPerFrame <= 0 {
		m.DrainPerFrame = 200 * time.Microsecond
	}
	if m.BlockTimeout <= 0 {
		m.BlockTimeout = time.Millisecond
	}
	if m.EvictAfter < 0 {
		m.EvictAfter = 0
	}
	if m.CorrelationWindow <= 0 {
		m.CorrelationWindow = 500 * time.Millisecond
	}
	if m.QueryInterval < 0 {
		m.QueryInterval = 0
	}
	if m.QueryInterval == 0 {
		m.QueryInterval = time.Second
	}
	if m.QueryTimeout <= 0 {
		m.QueryTimeout = 100 * time.Millisecond
	}
	for i := range s.Chaos {
		ev := &s.Chaos[i]
		switch ev.Kind {
		case ChaosNodeCrash, ChaosPartition, ChaosLinkDown, ChaosLoss,
			ChaosDegrade, ChaosSlowSub, ChaosFlapSub, ChaosShardDie:
		default:
			return fmt.Errorf("scenario %s: chaos[%d]: unknown kind %q", s.Name, i, ev.Kind)
		}
		if ev.At < 0 || ev.At > s.Duration {
			return fmt.Errorf("scenario %s: chaos[%d]: at=%v outside run duration %v",
				s.Name, i, ev.At, s.Duration)
		}
		if ev.Duration <= 0 {
			ev.Duration = time.Second
		}
		if ev.Count <= 0 {
			ev.Count = 1
		}
		if ev.Fraction <= 0 || ev.Fraction >= 1 {
			ev.Fraction = 0.5
		}
		if ev.Kind == ChaosLoss && (ev.Rate <= 0 || ev.Rate > 1) {
			ev.Rate = 0.3
		}
		if ev.Factor <= 0 {
			switch ev.Kind {
			case ChaosDegrade:
				ev.Factor = 0.1
			case ChaosSlowSub:
				ev.Factor = 16
			}
		}
		if ev.Period <= 0 {
			ev.Period = 200 * time.Millisecond
		}
		if ev.Shard == 0 && ev.Kind != ChaosShardDie && ev.Kind != ChaosSlowSub && ev.Kind != ChaosFlapSub {
			ev.Shard = -1
		}
	}
	return nil
}

// Builtins returns the named scenarios shipped with the harness, keyed by
// name. The specs are value copies; mutating them does not affect later
// calls.
func Builtins() map[string]Spec {
	smallTemplates := []Template{
		{Name: "edge-client", Role: "client", Weight: 2, Rate: 4, Slots: 4,
			Timeout: 200 * time.Millisecond},
		{Name: "app-server", Role: "server", Weight: 1, Workers: 4,
			ServiceTime: 2 * time.Millisecond},
	}
	return map[string]Spec{
		"happy-small": {
			Name:      "happy-small",
			Seed:      1,
			Duration:  4 * time.Second,
			Fleet:     FleetSpec{Nodes: 12, Startup: "linear", StartupSpan: time.Second},
			Templates: smallTemplates,
			Monitor:   MonitorSpec{Shards: 2},
			// Linear startup lets clients race their servers' bind, so a
			// few early requests legitimately time out.
			Guard: Guard{MinCorrelationRate: 0.5, MaxTimeoutFraction: 0.05},
		},
		"chaos-small": {
			Name:      "chaos-small",
			Seed:      7,
			Duration:  6 * time.Second,
			Fleet:     FleetSpec{Nodes: 16, Startup: "wave", StartupSpan: time.Second, Waves: 4},
			Templates: smallTemplates,
			Monitor: MonitorSpec{
				Shards: 4, QueueDepth: 8, DrainPerFrame: 500 * time.Microsecond,
				EvictAfter: 32,
			},
			Chaos: []ChaosEvent{
				{At: 1500 * time.Millisecond, Kind: ChaosLoss, Count: 4, Rate: 0.4, Duration: time.Second},
				{At: 2 * time.Second, Kind: ChaosPartition, Fraction: 0.5, Duration: time.Second},
				{At: 2500 * time.Millisecond, Kind: ChaosSlowSub, Shard: 1, Factor: 64, Duration: time.Second},
				{At: 3 * time.Second, Kind: ChaosNodeCrash, Count: 2},
				{At: 3500 * time.Millisecond, Kind: ChaosFlapSub, Shard: 2, Period: 150 * time.Millisecond, Duration: 900 * time.Millisecond},
				{At: 4 * time.Second, Kind: ChaosShardDie, Shard: 3},
				{At: 4500 * time.Millisecond, Kind: ChaosDegrade, Count: 3, Factor: 0.05, Duration: time.Second},
			},
			Guard: Guard{MaxTimeoutFraction: 0.5},
		},
		// overflow-small is the one builtin that fills a send queue, so the
		// broker's overflow arms sit under the byte-diff guard too. Both
		// shards run on a one-frame queue. Shard 0's healthy drain beats the
		// block timeout, so full-queue publishes block-admit (or are refused
		// at the deadline); slowed past it, the queue sheds the oldest frame
		// instead, and recovers. Shard 1 stalls from its first frame: with no
		// delivery to estimate from it sheds on every publish and the streak
		// runs into the eviction threshold.
		"overflow-small": {
			Name:     "overflow-small",
			Seed:     3,
			Duration: 3 * time.Second,
			Fleet:    FleetSpec{Nodes: 12},
			Templates: []Template{
				{Name: "c", Role: "client", Weight: 1, Rate: 60, Slots: 8,
					FlushInterval: 10 * time.Millisecond, WindowSize: 4},
				{Name: "s", Role: "server", Weight: 1,
					FlushInterval: 10 * time.Millisecond, WindowSize: 4},
			},
			Monitor: MonitorSpec{
				Shards: 2, QueueDepth: 1, DrainPerFrame: 200 * time.Microsecond,
				BlockTimeout: time.Millisecond, EvictAfter: 8,
			},
			Chaos: []ChaosEvent{
				{At: 0, Kind: ChaosSlowSub, Shard: 1, Factor: 1000, Duration: time.Second},
				{At: 1500 * time.Millisecond, Kind: ChaosSlowSub, Shard: 0, Factor: 8, Duration: time.Second},
			},
		},
		"chaos-1k": {
			Name:     "chaos-1k",
			Seed:     42,
			Duration: 6 * time.Second,
			Fleet: FleetSpec{
				Nodes: 1000, Startup: "wave", StartupSpan: 2 * time.Second,
				Waves: 5, PeersPerClient: 2,
			},
			Templates: []Template{
				{Name: "edge-client", Role: "client", Weight: 6, Rate: 1, Slots: 2,
					Timeout: 200 * time.Millisecond},
				{Name: "bulk-client", Role: "client", Weight: 1, Rate: 1,
					ReqSize: 4096, RespSize: 8192, Slots: 2, Timeout: 300 * time.Millisecond},
				{Name: "app-server", Role: "server", Weight: 2, Workers: 8,
					ServiceTime: time.Millisecond},
				{Name: "slow-server", Role: "server", Weight: 1, Workers: 4,
					ServiceTime: 4 * time.Millisecond, Bandwidth: 10e6},
			},
			Monitor: MonitorSpec{
				Shards: 8, QueueDepth: 64, DrainPerFrame: 100 * time.Microsecond,
				EvictAfter: 128,
			},
			Chaos: []ChaosEvent{
				{At: 2 * time.Second, Kind: ChaosNodeCrash, Count: 20},
				{At: 2500 * time.Millisecond, Kind: ChaosLoss, Count: 40, Rate: 0.25, Duration: 1500 * time.Millisecond},
				{At: 3 * time.Second, Kind: ChaosPartition, Fraction: 0.3, Duration: 1500 * time.Millisecond},
				{At: 3500 * time.Millisecond, Kind: ChaosSlowSub, Shard: 2, Factor: 32, Duration: time.Second},
				{At: 4 * time.Second, Kind: ChaosShardDie, Shard: 5},
				{At: 4500 * time.Millisecond, Kind: ChaosNodeCrash, Count: 10},
			},
			Guard: Guard{MaxTimeoutFraction: 0.6},
		},
	}
}

package scenario

import (
	"fmt"
	"time"

	"sysprof/internal/sim"
	"sysprof/internal/simnet"
)

// foreverDown is the failure window used for permanent cuts (node crash,
// partition before its explicit heal): longer than any scenario run.
const foreverDown = 1000 * time.Hour

// ChaosApplied is one fired chaos event as resolved at runtime — the
// report carries it so a seed's target choices are visible and diffable.
type ChaosApplied struct {
	AtUS    int64    `json:"at_us"`
	Kind    string   `json:"kind"`
	Targets []string `json:"targets"`
}

// scheduleChaos arms every chaos event. Each event gets its own RNG fork
// keyed by index, so reordering or editing one event never changes the
// targets another samples.
func (r *runner) scheduleChaos() {
	for i := range r.spec.Chaos {
		i := i
		ev := r.spec.Chaos[i]
		rng := r.rng.Fork(fmt.Sprintf("chaos/%d", i))
		r.eng.After(ev.At, func() { r.fireChaos(ev, rng) })
	}
}

func (r *runner) fireChaos(ev ChaosEvent, rng *sim.RNG) {
	applied := ChaosApplied{AtUS: int64(r.eng.Now() / time.Microsecond), Kind: ev.Kind}
	switch ev.Kind {
	case ChaosNodeCrash:
		applied.Targets = r.crashNodes(ev, rng)
	case ChaosPartition:
		applied.Targets = r.partition(ev, rng)
	case ChaosLinkDown:
		applied.Targets = r.linkDown(ev, rng)
	case ChaosLoss:
		applied.Targets = r.injectLoss(ev, rng)
	case ChaosDegrade:
		applied.Targets = r.degradeLinks(ev, rng)
	case ChaosSlowSub:
		applied.Targets = r.slowSubscriber(ev, rng)
	case ChaosFlapSub:
		applied.Targets = r.flapSubscriber(ev, rng)
	case ChaosShardDie:
		applied.Targets = r.killShard(ev, rng)
	}
	r.chaosLog = append(r.chaosLog, applied)
}

// crashNodes kills Count running nodes: the workload stops generating and
// serving, and every link touching the node goes down for good. The
// node's kernel-side monitoring keeps draining already-captured records —
// the harness models an application/host crash whose final buffers still
// reach the wire via the surviving flush path; records that were lost
// stay visible as window/buffer residue in the accounting.
func (r *runner) crashNodes(ev ChaosEvent, rng *sim.RNG) []string {
	var alive []*fleetNode
	for _, fn := range r.nodes {
		if !fn.crashed {
			alive = append(alive, fn)
		}
	}
	count := ev.Count
	if count > len(alive) {
		count = len(alive)
	}
	var targets []string
	for _, idx := range rng.Perm(len(alive))[:count] {
		fn := alive[idx]
		fn.crashed = true
		id := fn.os.ID()
		r.net.ForEachLink(func(l *simnet.Link) {
			if l.Src() == id || l.Dst() == id {
				l.Fail(foreverDown)
			}
		})
		targets = append(targets, fn.os.Name())
	}
	return targets
}

// partition splits the fleet: a seeded Fraction of nodes land on the far
// side, and every link crossing the cut fails hard. Healing is explicit —
// after Duration the cut links are re-provisioned through ConnectWith,
// exercising the reconnect-in-place path (counters and any in-flight
// deliveries on the reused links survive).
func (r *runner) partition(ev ChaosEvent, rng *sim.RNG) []string {
	far := make(map[simnet.NodeID]bool)
	perm := rng.Perm(len(r.nodes))
	k := int(float64(len(r.nodes)) * ev.Fraction)
	if k < 1 {
		k = 1
	}
	for _, idx := range perm[:k] {
		far[r.nodes[idx].os.ID()] = true
	}
	var cut [][2]simnet.NodeID
	seen := make(map[[2]simnet.NodeID]bool)
	r.net.ForEachLink(func(l *simnet.Link) {
		if far[l.Src()] == far[l.Dst()] {
			return
		}
		pair := pairKey(l.Src(), l.Dst())
		if !seen[pair] {
			seen[pair] = true
			cut = append(cut, pair)
		}
		l.Fail(foreverDown)
	})
	r.eng.After(ev.Duration, func() {
		for _, pair := range cut {
			cfg, ok := r.linkCfg[pair]
			if !ok {
				continue
			}
			// Reconnect heals: downUntil clears, loss resets, counters
			// and in-flight deliveries on the reused Link survive.
			if err := r.net.ConnectWith(pair[0], pair[1], cfg); err != nil {
				panic(fmt.Sprintf("scenario: partition heal reconnect: %v", err))
			}
		}
	})
	return []string{fmt.Sprintf("far-side=%d nodes, cut=%d pairs", k, len(cut))}
}

// samplePairs picks Count distinct connected node pairs.
func (r *runner) samplePairs(count int, rng *sim.RNG) [][2]simnet.NodeID {
	var pairs [][2]simnet.NodeID
	seen := make(map[[2]simnet.NodeID]bool)
	r.net.ForEachLink(func(l *simnet.Link) {
		pair := pairKey(l.Src(), l.Dst())
		if !seen[pair] {
			seen[pair] = true
			pairs = append(pairs, pair)
		}
	})
	if count > len(pairs) {
		count = len(pairs)
	}
	picked := make([][2]simnet.NodeID, 0, count)
	for _, idx := range rng.Perm(len(pairs))[:count] {
		picked = append(picked, pairs[idx])
	}
	return picked
}

// linkDown fails Count pairs for Duration (heals by window expiry, unlike
// the partition's explicit reconnect).
func (r *runner) linkDown(ev ChaosEvent, rng *sim.RNG) []string {
	var targets []string
	for _, pair := range r.samplePairs(ev.Count, rng) {
		r.net.Link(pair[0], pair[1]).Fail(ev.Duration)
		r.net.Link(pair[1], pair[0]).Fail(ev.Duration)
		targets = append(targets, fmt.Sprintf("n%d--n%d", pair[0], pair[1]))
	}
	return targets
}

// injectLoss turns on Rate packet loss for Count pairs. The RNG argument
// to SetLoss is deliberately nil: the link derives a seeded stream from
// its own identity, so loss is reproducible per link and independent per
// direction — the exact contract the nil-RNG bugfix established.
func (r *runner) injectLoss(ev ChaosEvent, rng *sim.RNG) []string {
	pairs := r.samplePairs(ev.Count, rng)
	var targets []string
	for _, pair := range pairs {
		r.net.Link(pair[0], pair[1]).SetLoss(ev.Rate, nil)
		r.net.Link(pair[1], pair[0]).SetLoss(ev.Rate, nil)
		targets = append(targets, fmt.Sprintf("n%d--n%d", pair[0], pair[1]))
	}
	r.eng.After(ev.Duration, func() {
		for _, pair := range pairs {
			r.net.Link(pair[0], pair[1]).SetLoss(0, nil)
			r.net.Link(pair[1], pair[0]).SetLoss(0, nil)
		}
	})
	return targets
}

// degradeLinks scales Count pairs' bandwidth by Factor for Duration,
// reconfiguring the live links in place (in-flight deliveries continue).
func (r *runner) degradeLinks(ev ChaosEvent, rng *sim.RNG) []string {
	pairs := r.samplePairs(ev.Count, rng)
	var targets []string
	for _, pair := range pairs {
		cfg, ok := r.linkCfg[pair]
		if !ok {
			continue
		}
		slow := cfg
		slow.Bandwidth = cfg.Bandwidth * ev.Factor
		if slow.Bandwidth < 1 {
			slow.Bandwidth = 1
		}
		if err := r.net.ConnectWith(pair[0], pair[1], slow); err != nil {
			panic(fmt.Sprintf("scenario: degrade reconfigure: %v", err))
		}
		targets = append(targets, fmt.Sprintf("n%d--n%d", pair[0], pair[1]))
	}
	r.eng.After(ev.Duration, func() {
		for _, pair := range pairs {
			if cfg, ok := r.linkCfg[pair]; ok {
				if err := r.net.ConnectWith(pair[0], pair[1], cfg); err != nil {
					panic(fmt.Sprintf("scenario: degrade restore: %v", err))
				}
			}
		}
	})
	return targets
}

// pickShard resolves an event's shard target (-1 = seeded random).
func (r *runner) pickShard(ev ChaosEvent, rng *sim.RNG) *shardSub {
	if ev.Shard >= 0 && ev.Shard < len(r.shards) {
		return r.shards[ev.Shard]
	}
	return r.shards[rng.Intn(len(r.shards))]
}

// slowSubscriber multiplies one shard subscriber's drain time by Factor
// for Duration.
func (r *runner) slowSubscriber(ev ChaosEvent, rng *sim.RNG) []string {
	s := r.pickShard(ev, rng)
	s.slowFactor = ev.Factor
	r.eng.After(ev.Duration, func() { s.slowFactor = 1 })
	return []string{fmt.Sprintf("shard-%d x%g", s.idx, ev.Factor)}
}

// flapSubscriber detaches and reattaches one shard subscriber every
// Period for Duration, ending attached.
func (r *runner) flapSubscriber(ev ChaosEvent, rng *sim.RNG) []string {
	s := r.pickShard(ev, rng)
	var cycles int
	var flip func()
	flip = func() {
		s.setDetached(s.state != detached)
		cycles++
		if time.Duration(cycles)*ev.Period < ev.Duration {
			r.eng.After(ev.Period, flip)
			return
		}
		s.setDetached(false)
	}
	flip()
	return []string{fmt.Sprintf("shard-%d period=%v", s.idx, ev.Period)}
}

// killShard kills one shard subscriber permanently.
func (r *runner) killShard(ev ChaosEvent, rng *sim.RNG) []string {
	s := r.pickShard(ev, rng)
	s.disconnect(dead)
	return []string{fmt.Sprintf("shard-%d", s.idx)}
}

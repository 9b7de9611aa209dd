package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sysprof/internal/kprof"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 2*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != time.Microsecond || h.Max() != 3*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	h.Record(-time.Second) // clamped
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: min=%v", h.Min())
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(time.Hour) }); n != 0 {
		t.Fatalf("Record allocates %v times", n)
	}
}

// TestHistogramQuantileBounds checks every quantile against the exact
// nearest-rank quantile of the sorted samples: within 6.25 %, and never
// outside [Min, Max].
func TestHistogramQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := map[string]func() time.Duration{
		"uniform":  func() time.Duration { return time.Duration(rng.Intn(1000)) * time.Microsecond },
		"exp":      func() time.Duration { return time.Duration(rng.ExpFloat64() * 1e6) },
		"heavy":    func() time.Duration { return time.Duration(math.Pow(10, 3+6*rng.Float64())) },
		"small":    func() time.Duration { return time.Duration(rng.Intn(40)) },
		"constant": func() time.Duration { return 9602 * time.Microsecond },
	}
	for name, gen := range sets {
		for _, n := range []int{1, 7, 100, 5000} {
			var h Histogram
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = gen()
				h.Record(samples[i])
			}
			slices.Sort(samples)
			for _, q := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 2} {
				rank := int(math.Ceil(min(max(q, 0), 1) * float64(n)))
				exact := samples[max(rank, 1)-1]
				got := h.Quantile(q)
				if got < h.Min() || got > h.Max() {
					t.Fatalf("%s n=%d: q%v = %v outside [%v, %v]", name, n, q, got, h.Min(), h.Max())
				}
				if diff := (got - exact).Abs(); diff > exact/16 {
					t.Fatalf("%s n=%d: q%v = %v, exact %v (off by %v)", name, n, q, got, exact, diff)
				}
			}
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	b.Record(time.Microsecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Microsecond || a.Max() != 3*time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 3 {
		t.Fatal("merge with empty changed count")
	}
	// Exact: the merge equals one histogram fed every sample.
	var all Histogram
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, time.Microsecond} {
		all.Record(d)
	}
	if a != all {
		t.Fatal("merged histogram differs from one fed every sample")
	}
}

// Property: count and sum are conserved, min <= mean <= max.
func TestHistogramInvariantProperty(t *testing.T) {
	prop := func(samples []uint32) bool {
		var h Histogram
		var sum time.Duration
		for _, s := range samples {
			d := time.Duration(s)
			h.Record(d)
			sum += d
		}
		if h.Count() != uint64(len(samples)) || h.Sum() != sum {
			return false
		}
		if h.Count() > 0 && (h.Mean() < h.Min() || h.Mean() > h.Max()) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallLPATracksLatency(t *testing.T) {
	now := new(time.Duration)
	hub := kprof.NewHub(1, func() time.Duration { return *now })
	hub.SetPerEventCost(0)
	a := NewSyscallLPA(hub)
	defer a.Close()

	emit := func(at time.Duration, typ kprof.EventType, pid int32, name string) {
		*now = at
		hub.Emit(&kprof.Event{Type: typ, PID: pid, Proc: name})
	}
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }

	emit(ms(0), kprof.EvSyscallEnter, 1, "read")
	emit(ms(2), kprof.EvSyscallExit, 1, "read")
	emit(ms(3), kprof.EvSyscallEnter, 1, "write")
	emit(ms(4), kprof.EvSyscallEnter, 2, "read") // concurrent on another PID
	emit(ms(9), kprof.EvSyscallExit, 2, "read")
	emit(ms(10), kprof.EvSyscallExit, 1, "write")

	stats := a.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// read: 2ms + 5ms = 7ms total; write: 7ms total. Sorted by total then
	// name: "read" (7ms) and "write" (7ms) tie -> name order.
	if stats[0].Name != "read" || stats[0].Count != 2 || stats[0].Total != ms(7) {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	if stats[1].Name != "write" || stats[1].Total != ms(7) {
		t.Fatalf("stats[1] = %+v", stats[1])
	}
	if c, total := a.PIDKernelTime(1); c != 2 || total != ms(9) {
		t.Fatalf("pid1 = %d/%v", c, total)
	}
	if c, _ := a.PIDKernelTime(99); c != 0 {
		t.Fatal("unknown pid has stats")
	}
	if a.Histogram("read") == nil || a.Histogram("nope") != nil {
		t.Fatal("Histogram accessor wrong")
	}
	a.Reset()
	if len(a.Stats()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSyscallLPAExitWithoutEnterIgnored(t *testing.T) {
	hub := kprof.NewHub(1, func() time.Duration { return 0 })
	hub.SetPerEventCost(0)
	a := NewSyscallLPA(hub)
	defer a.Close()
	hub.Emit(&kprof.Event{Type: kprof.EvSyscallExit, PID: 5, Proc: "read"})
	if len(a.Stats()) != 0 {
		t.Fatal("mid-call attach produced a sample")
	}
}

func TestSyscallLPAOverSimulatedKernel(t *testing.T) {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	node, err := simos.NewNode(eng, network, "n", simos.Config{
		DiskSeek: 5 * time.Millisecond, DiskBytesPerSec: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewSyscallLPA(node.Hub())
	defer a.Close()

	node.Spawn("app", func(p *simos.Process) {
		p.DiskWrite(4096, func() {
			p.Syscall("getpid", time.Microsecond, func() {})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	stats := a.Stats()
	if len(stats) < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// The write syscall blocks on the disk: its latency must include the
	// ~5ms disk time, dwarfing getpid.
	if stats[0].Name != "write" {
		t.Fatalf("dominant syscall = %q, want write", stats[0].Name)
	}
	if stats[0].Mean < 5*time.Millisecond {
		t.Fatalf("write latency %v, want >= disk seek", stats[0].Mean)
	}
}

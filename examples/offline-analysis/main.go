// offline-analysis: capture once, analyze forever.
//
// The paper's GPA "periodically dumps its information onto local disk,
// which can be used later for purposes of auditing, workload prediction,
// and system modeling". This example runs a monitored service whose load
// ramps up, records the kernel event stream to a trace, then — entirely
// offline — rebuilds the interaction records from the trace, derives a
// per-class accounting report, forecasts the arrival rate with Holt
// smoothing, and produces a capacity plan.
//
// Run with:
//
//	go run ./examples/offline-analysis
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/gpa"
	"sysprof/internal/kprof"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
	"sysprof/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "offline-analysis:", err)
		os.Exit(1)
	}
}

func run() error {
	// ---- Phase 1: live capture -----------------------------------------
	var traceBuf bytes.Buffer
	tw, err := trace.NewWriter(&traceBuf)
	if err != nil {
		return err
	}

	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	server, err := simos.NewNode(eng, network, "api-server", simos.Config{})
	if err != nil {
		return err
	}
	client, err := simos.NewNode(eng, network, "clients", simos.Config{})
	if err != nil {
		return err
	}
	if err := network.Connect(server.ID(), client.ID()); err != nil {
		return err
	}
	tw.Attach(server.Hub(), core.MaskDefault())

	ssock := server.MustBind(443)
	server.Spawn("api", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(3*time.Millisecond, func() {
					p.Reply(ssock, m, 4096, nil, loop)
				})
			})
		}
		loop()
	})

	// A ramping workload: the request gap shrinks every second, so the
	// arrival rate climbs — the situation capacity planning exists for.
	rng := sim.NewRNG(11)
	csock := client.MustBind(9000)
	client.Spawn("load", func(p *simos.Process) {
		var loop func()
		loop = func() {
			sec := int(eng.Now()/time.Second) + 1
			mean := 50.0 / float64(sec) // ms between requests: 50, 25, 16.7, ...
			gap := time.Duration(rng.Exp(mean) * float64(time.Millisecond))
			p.Send(csock, ssock.Addr(), 512, nil, func() {
				p.Recv(csock, func(m *simos.Message) {
					p.Sleep(gap, loop)
				})
			})
		}
		loop()
	})
	if err := eng.RunUntil(8 * time.Second); err != nil {
		return err
	}
	tw.Detach()
	if err := tw.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d kernel events (%d KiB trace)\n\n", tw.Events(), traceBuf.Len()/1024)

	// ---- Phase 2: offline analysis from the trace alone -----------------
	var lpa *core.LPA
	if _, err := trace.ReplaySession(&traceBuf, func(node simnet.NodeID, hub *kprof.Hub) {
		if node == server.ID() {
			lpa = core.NewLPA(hub, core.Config{WindowSize: 1 << 16})
		}
	}); err != nil {
		return err
	}
	lpa.FlushOpen()
	recs := lpa.Window().Snapshot()
	fmt.Printf("offline replay rebuilt %d interactions\n\n", len(recs))

	// Feed the rebuilt records into a GPA for accounting + forecasting.
	g := gpa.New(gpa.Config{LoadWindow: time.Hour}, func() time.Duration { return 8 * time.Second })
	var series []int
	bucket := time.Second
	for _, r := range recs {
		g.Ingest(r)
		idx := int(r.Start / bucket)
		for len(series) <= idx {
			series = append(series, 0)
		}
		series[idx]++
	}
	fmt.Println("accounting (auditing/billing view):")
	fmt.Print(g.RenderAccounting())

	fmt.Println("\narrival rate per second (the ramp):")
	for i, v := range series {
		fmt.Printf("  t=%ds: %d req/s\n", i, v)
	}

	pred := gpa.NewPredictor(0.6, 0.4)
	pred.ObserveSeries(series)
	forecast := pred.Forecast(3)
	fmt.Printf("\nforecast rate 3s ahead: %.0f req/s\n", forecast)

	rows := g.Accounting()
	if len(rows) == 0 {
		return fmt.Errorf("no accounting rows")
	}
	cpuPer := rows[0].CPUTime / time.Duration(rows[0].Interactions)
	plan, err := gpa.PlanCapacity(rows[0].Class, forecast, cpuPer, 0.7)
	if err != nil {
		return err
	}
	fmt.Printf("capacity plan for %s: %.2f CPUs of demand at %v/interaction -> %d server(s) at 70%% target utilization\n",
		plan.Class, plan.DemandCPUs, plan.CPUPerInteraction.Round(time.Microsecond), plan.Servers)
	return nil
}

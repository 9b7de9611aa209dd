// custom-analyzer: install an E-Code CPA at runtime.
//
// The paper's Custom Performance Analyzers are small programs written in
// a C subset (E-Code), compiled at runtime and run on the kernel event
// fast path. This example installs, through the SysProf controller, a CPA
// that watches socket-buffer residence times and raises an alert whenever
// a request waited more than twice the running average — a latency
// anomaly detector the server's code knows nothing about. It then
// reconfigures monitoring granularity at runtime, as an operator would.
//
// Run with:
//
//	go run ./examples/custom-analyzer
package main

import (
	"fmt"
	"os"
	"time"

	"sysprof/internal/controller"
	"sysprof/internal/core"
	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

// cpaSource is the analyzer, in E-Code. "ev" is the kernel event; for
// net_user_read events, ev.aux carries the socket-buffer residence in
// nanoseconds.
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "custom-analyzer:", err)
		os.Exit(1)
	}
}

func run() error {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	server, err := simos.NewNode(eng, network, "server", simos.Config{})
	if err != nil {
		return err
	}
	client, err := simos.NewNode(eng, network, "client", simos.Config{})
	if err != nil {
		return err
	}
	if err := network.Connect(server.ID(), client.ID()); err != nil {
		return err
	}

	// Controller with an alert sink for CPA emissions.
	var alerts []time.Duration
	ctl := controller.New(func(ch string, v ecode.Arg) {
		if ch != "latency.alerts" || v.T != ecode.TInt {
			return
		}
		alerts = append(alerts, time.Duration(v.Int))
		fmt.Printf("[%8v] ALERT: request sat %v in the socket buffer\n",
			eng.Now().Round(time.Millisecond), time.Duration(v.Int).Round(time.Microsecond))
	})
	if err := ctl.RegisterNode("server", server.Hub()); err != nil {
		return err
	}
	lpa := core.NewLPA(server.Hub(), core.Config{})
	if err := ctl.AttachLPA("server", "interactions", lpa); err != nil {
		return err
	}

	// Install the CPA. Over the control channel the same call is
	// "cpa install <node> <name> <groups> <base64-source>", which is what
	// sysprofctl sends; here the mask is narrower than any group name.
	if err := ctl.InstallCPA("server", "latency-watch", cpaSource,
		kprof.MaskOf(kprof.EvNetUserRead)); err != nil {
		return err
	}
	fmt.Println("installed CPA 'latency-watch' (E-Code, compiled at runtime)")

	// Workload: a server that is healthy for 2 s, then suffers a 60 ms
	// stall (e.g. a GC pause), then recovers.
	ssock := server.MustBind(80)
	server.Spawn("httpd", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				work := time.Millisecond
				if now := eng.Now(); now > 2*time.Second && now < 2200*time.Millisecond {
					work = 60 * time.Millisecond // the anomaly
				}
				p.Compute(work, func() {
					p.Reply(ssock, m, 2048, nil, loop)
				})
			})
		}
		loop()
	})
	// Several concurrent clients: during the stall their requests pile up
	// in the server's socket buffer, which is exactly what the CPA
	// watches.
	for i := 0; i < 6; i++ {
		csock := client.MustBind(9000 + uint16(i))
		client.Spawn("load", func(p *simos.Process) {
			var loop func()
			loop = func() {
				p.Send(csock, ssock.Addr(), 256, nil, func() {
					p.Recv(csock, func(m *simos.Message) {
						p.Sleep(5*time.Millisecond, loop)
					})
				})
			}
			loop()
		})
	}

	if err := eng.RunUntil(4 * time.Second); err != nil {
		return err
	}

	fmt.Printf("\n%d alerts raised; analyzer state:\n", len(alerts))
	fmt.Print(ctl.Status())

	// Runtime reconfiguration, as an operator would do over sysprofctl.
	if _, err := ctl.Execute("granularity server interactions class"); err != nil {
		return err
	}
	fmt.Println("\nswitched LPA to per-class granularity at runtime:")
	if err := eng.RunFor(time.Second); err != nil {
		return err
	}
	for class, agg := range lpa.Aggregates() {
		fmt.Printf("  %s: %d interactions, mean residence %v\n",
			class, agg.Count, agg.MeanResidence().Round(time.Microsecond))
	}

	if _, err := ctl.Execute("cpa remove server latency-watch"); err != nil {
		return err
	}
	fmt.Println("removed CPA; monitoring reverted")
	return nil
}

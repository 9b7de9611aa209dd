// Command sysprofd runs a live SysProf node: it hosts a small simulated
// cluster (a monitored web server plus a client generating traffic),
// attaches the full monitoring stack — Kprof instrumentation, an
// interaction LPA, the dissemination daemon — and exposes it over real
// sockets:
//
//   - the /proc virtual filesystem over HTTP (-http),
//   - interaction records over TCP publish-subscribe (-pubsub), which
//     cmd/gpad can subscribe to,
//   - the controller's management protocol over TCP (-ctl), which
//     cmd/sysprofctl drives.
//
// With -ntp-interval the node's clock-error bound is re-measured on a
// cadence, and with -federation each bound is also sent to the listed
// gpad shard query endpoints as "clockbound <node> <bound>". That is all
// the node tells a federation: the federation itself (retention, clock
// bounds by hand, shard liveness) is administered through the merge
// frontend's port, sysprofctl -addr <gpad -frontend -query address>.
//
// Virtual time is paced against wall-clock time, so the daemon behaves
// like a long-running monitored system.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"sysprof/internal/apps/httperf"
	"sysprof/internal/apps/iozone"
	"sysprof/internal/apps/nfs"
	"sysprof/internal/apps/rubis"
	"sysprof/internal/controller"
	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/ecode"
	"sysprof/internal/lineproto"
	"sysprof/internal/ntpclock"
	"sysprof/internal/pbio"
	"sysprof/internal/procfs"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
	"sysprof/internal/trace"
)

func main() {
	var opts options
	flag.StringVar(&opts.httpAddr, "http", "127.0.0.1:8070", "procfs HTTP address")
	flag.StringVar(&opts.pubsubAddr, "pubsub", "127.0.0.1:8071", "pub-sub TCP address")
	flag.StringVar(&opts.ctlAddr, "ctl", "127.0.0.1:8072", "controller TCP address")
	flag.DurationVar(&opts.pace, "pace", 100*time.Millisecond, "virtual-time advance per wall tick")
	flag.StringVar(&opts.tracePath, "trace", "", "record the kernel event stream (PBIO) to this file")
	flag.StringVar(&opts.topology, "topology", "simple", "hosted cluster: simple (web server), nfs (storage proxy), rubis (auction site)")
	psQueue := flag.Int("pubsub-queue", 256, fmt.Sprintf("per-subscriber send-queue depth (frames); a full queue holds the publisher up to %v for a subscriber observed to drain a frame within that, and sheds its oldest frame for any other", pubsub.DefaultConfig().BlockTimeout))
	psEvict := flag.Int("pubsub-evict", 64, "evict a subscriber after this many consecutive overflows (0 = never)")
	fedEndpoints := flag.String("federation", "", "comma-separated gpad shard query endpoints to send each measured clock-error bound to (needs -ntp-interval)")
	flag.DurationVar(&opts.ntpInterval, "ntp-interval", 0, "automatic NTP clock-error re-measurement cadence for the monitored node (0 disables; retune live with sysprofctl ntpinterval)")
	flag.Parse()
	opts.federation = lineproto.SplitList(*fedEndpoints)
	if len(opts.federation) > 0 && opts.ntpInterval <= 0 {
		fmt.Fprintln(os.Stderr, "sysprofd: -federation only carries the clock-error bounds -ntp-interval measures; "+
			"administer the federation through gpad -frontend -query (sysprofctl -addr <that address> help)")
		os.Exit(2)
	}
	opts.broker = []pubsub.Option{
		pubsub.WithQueueDepth(*psQueue),
		pubsub.WithEvictAfterOverflows(*psEvict),
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(opts, sig); err != nil {
		fmt.Fprintln(os.Stderr, "sysprofd:", err)
		os.Exit(1)
	}
}

type options struct {
	httpAddr, pubsubAddr, ctlAddr string
	pace                          time.Duration
	tracePath, topology           string
	federation                    []string // gpad shard query endpoints the clock-error bounds go to
	ntpInterval                   time.Duration
	broker                        []pubsub.Option
}

// run hosts the node until a value arrives on sig. The simulated world —
// engine, kernel, analyzers, daemon — is single-threaded: the pacing
// loop, every management command and every procfs read take world
// before they touch it. Nothing under world waits on the network.
func run(opts options, sig <-chan os.Signal) error {
	var world sync.Mutex
	ctx, cancel := context.WithCancel(context.Background())
	var senders sync.WaitGroup
	defer senders.Wait()
	defer cancel()
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	server, err := buildTopology(eng, network, opts.topology)
	if err != nil {
		return err
	}

	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return err
	}
	broker := pubsub.NewBroker(reg, opts.broker...)
	defer broker.Close()
	fs := procfs.New()

	daemon := dissem.New(eng, broker, fs, dissem.Config{
		NodeName:      server.Name(),
		FlushInterval: 250 * time.Millisecond,
		MaxWindowAge:  2 * time.Second,
	})
	lpa := core.NewLPA(server.Hub(), core.Config{OnFull: daemon.OnFull})
	daemon.Serve(lpa)
	daemon.Start()

	// Second analyzer: per-syscall activity (latency histograms), exposed
	// via procfs.
	sysLPA := core.NewSyscallLPA(server.Hub())
	fs.Register("/sysprof/"+server.Name()+"/syscalls", func() string {
		var out string
		for _, st := range sysLPA.Stats() {
			out += fmt.Sprintf("%-12s count=%-8d total=%-12v mean=%-10v p99=%v\n",
				st.Name, st.Count, st.Total, st.Mean, st.P99)
		}
		return out
	})

	// What installed CPAs emit: per channel, a count and the last value.
	// The sink runs on the event path, under world like every procfs
	// read, so it only stores. A record payload is not kept: the event
	// belongs to the code that raised it.
	type emitted struct {
		count uint64
		last  ecode.Arg
	}
	emits := map[string]*emitted{}
	fs.Register("/sysprof/"+server.Name()+"/emits", func() string {
		channels := make([]string, 0, len(emits))
		for ch := range emits {
			channels = append(channels, ch)
		}
		sort.Strings(channels)
		var out string
		for _, ch := range channels {
			e := emits[ch]
			last := "record"
			if e.last.T != ecode.TRecord {
				last = fmt.Sprint(e.last.Value())
			}
			out += fmt.Sprintf("%-20s count=%-8d last=%s\n", ch, e.count, last)
		}
		return out
	})
	ctl := controller.New(func(ch string, v ecode.Arg) {
		e := emits[ch]
		if e == nil {
			e = &emitted{}
			emits[ch] = e
		}
		v.Rec = nil
		e.count++
		e.last = v
	})
	if err := ctl.RegisterNode(server.Name(), server.Hub()); err != nil {
		return err
	}
	if err := ctl.AttachLPA(server.Name(), "interactions", lpa); err != nil {
		return err
	}
	if err := ctl.AttachDaemon(server.Name(), daemon); err != nil {
		return err
	}
	if err := ctl.AttachBroker(server.Name(), broker); err != nil {
		return err
	}
	if opts.ntpInterval > 0 {
		// Model the monitored node's clock explicitly (a few ms fast, 50
		// ppm drift) and re-measure its error bound on a cadence. Each
		// measurement is logged and posted to the -federation shards so
		// correlation windows track the clock instead of relying on
		// operator-pushed bounds.
		refClock := ntpclock.New(eng, 0, 0)
		nodeClock := ntpclock.New(eng, 2*time.Millisecond, 50e-6)
		server.SetClock(nodeClock.Now)
		syncer := ntpclock.NewSyncer(nodeClock, refClock, sim.NewRNG(11),
			200*time.Microsecond, 50*time.Microsecond)
		nodeName := server.Name()
		post := sendBounds(ctx, &senders, opts.federation)
		mon, err := ntpclock.NewMonitor(eng, syncer, opts.ntpInterval, 8,
			func(offset, bound time.Duration) {
				log.Printf("ntp %s: offset=%v bound=%v", nodeName, offset, bound)
				post(fmt.Sprintf("clockbound %d %v", server.ID(), bound))
			})
		if err != nil {
			return err
		}
		mon.Start()
		defer mon.Stop()
		if err := ctl.AttachNTP(nodeName, mon); err != nil {
			return err
		}
		log.Printf("ntp monitor on %s every %v", nodeName, opts.ntpInterval)
	}

	if opts.tracePath != "" {
		f, err := os.Create(opts.tracePath)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		tw, err := trace.NewWriter(f)
		if err != nil {
			f.Close()
			return err
		}
		tw.Attach(server.Hub(), core.MaskDefault())
		defer func() {
			world.Lock()
			tw.Detach()
			err := tw.Close()
			world.Unlock()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Printf("event trace %s: %v", opts.tracePath, err)
			} else {
				log.Printf("event trace %s: %d events", opts.tracePath, tw.Events())
			}
		}()
		log.Printf("recording event trace to %s", opts.tracePath)
	}

	// Real listeners.
	psListener, err := net.Listen("tcp", opts.pubsubAddr)
	if err != nil {
		return fmt.Errorf("pubsub listen: %w", err)
	}
	go func() {
		if err := broker.Serve(psListener); err != nil {
			log.Printf("pubsub serve: %v", err)
		}
	}()
	ctlListener, err := net.Listen("tcp", opts.ctlAddr)
	if err != nil {
		return fmt.Errorf("ctl listen: %w", err)
	}
	defer ctlListener.Close()
	go lineproto.Serve(ctlListener, func(line string) (string, error) {
		world.Lock()
		defer world.Unlock()
		return ctl.Execute(line)
	})
	httpListener, err := net.Listen("tcp", opts.httpAddr)
	if err != nil {
		return fmt.Errorf("http listen: %w", err)
	}
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		world.Lock()
		defer world.Unlock()
		fs.ServeHTTP(w, r)
	})}
	go func() {
		if err := httpSrv.Serve(httpListener); err != nil && err != http.ErrServerClosed {
			log.Printf("http serve: %v", err)
		}
	}()
	defer httpSrv.Close()

	// The addresses the listeners got, which differ from the ones asked
	// for when those name port 0.
	log.Printf("sysprofd up: procfs http://%s/sysprof/ pubsub %s ctl %s",
		httpListener.Addr(), psListener.Addr(), ctlListener.Addr())

	// Pace virtual time against wall time until interrupted.
	ticker := time.NewTicker(opts.pace)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			world.Lock()
			err := eng.RunFor(opts.pace)
			world.Unlock()
			if err != nil {
				return err
			}
		case <-sig:
			log.Printf("shutting down")
			world.Lock()
			daemon.Stop()
			world.Unlock()
			return nil
		}
	}
}

// boundTimeout bounds one clockbound round trip to a shard.
const boundTimeout = 5 * time.Second

// sendBounds starts one sender per shard endpoint and returns post, which
// hands every sender a clockbound line without waiting: each sender's
// mailbox holds one line, the newest, so a shard that is slow or gone
// costs its own sender the bounds it missed and nobody else anything.
// post's caller is the NTP monitor, which runs under world, one call at a
// time. The senders stop when ctx is done.
func sendBounds(ctx context.Context, senders *sync.WaitGroup, endpoints []string) (post func(line string)) {
	boxes := make([]chan string, len(endpoints))
	for i, addr := range endpoints {
		boxes[i] = make(chan string, 1)
		senders.Add(1)
		go func(box <-chan string) {
			defer senders.Done()
			sendTo(ctx, addr, box)
		}(boxes[i])
	}
	return func(line string) {
		for _, box := range boxes {
			select {
			case <-box: // superseded before it was sent
			default:
			}
			box <- line
		}
	}
}

// sendTo is one endpoint's sender: it asks each line it is posted over a
// kept connection, dialed again after a failure, and logs when the
// endpoint starts failing. ctx being done closes the connection, which
// ends a round trip in progress.
func sendTo(ctx context.Context, addr string, box <-chan string) {
	var c *lineproto.Client
	var hangUp func()
	defer func() {
		if c != nil {
			hangUp()
		}
	}()
	for failing := false; ; {
		var line string
		select {
		case <-ctx.Done():
			return
		case line = <-box:
		}
		var err error
		if c == nil {
			var conn net.Conn
			if conn, err = (&net.Dialer{Timeout: boundTimeout}).DialContext(ctx, "tcp", addr); err == nil {
				unwatch := context.AfterFunc(ctx, func() { conn.Close() })
				c, hangUp = lineproto.NewClient(conn), func() { unwatch(); conn.Close(); c = nil }
			}
		}
		if err == nil {
			if _, err = c.Do(line, boundTimeout); err != nil {
				hangUp()
			}
		}
		if err != nil && !failing && ctx.Err() == nil {
			log.Printf("clockbound to %s: %v", addr, err)
		}
		failing = err != nil
	}
}

// buildTopology assembles the requested cluster and returns the node the
// monitoring stack attaches to.
func buildTopology(eng *sim.Engine, network *simnet.Network, topology string) (*simos.Node, error) {
	switch topology {
	case "simple":
		server, err := simos.NewNode(eng, network, "webserver", simos.Config{})
		if err != nil {
			return nil, err
		}
		client, err := simos.NewNode(eng, network, "client", simos.Config{})
		if err != nil {
			return nil, err
		}
		if err := network.Connect(server.ID(), client.ID()); err != nil {
			return nil, err
		}
		startWorkload(server, client)
		return server, nil
	case "nfs":
		svc, err := nfs.Build(eng, network, nfs.DefaultConfig())
		if err != nil {
			return nil, err
		}
		client, err := simos.NewNode(eng, network, "client", simos.Config{})
		if err != nil {
			return nil, err
		}
		if err := network.Connect(client.ID(), svc.Proxy.ID()); err != nil {
			return nil, err
		}
		if _, err := iozone.Start(client, svc.ProxyAddr(), iozone.Config{
			Threads: 8, WriteSize: 16 * 1024, MakeRequest: nfs.NewWriteRequest,
		}); err != nil {
			return nil, err
		}
		return svc.Proxy, nil
	case "rubis":
		svc, err := rubis.Build(eng, network, rubis.DefaultConfig())
		if err != nil {
			return nil, err
		}
		client, err := simos.NewNode(eng, network, "client", simos.Config{})
		if err != nil {
			return nil, err
		}
		for _, b := range svc.Backends {
			if err := network.Connect(client.ID(), b.ID()); err != nil {
				return nil, err
			}
		}
		if _, err := httperf.Start(client, httperf.RoundRobinRouter(svc.BackendAddrs()), httperf.Config{
			Classes: []httperf.ClassSpec{
				{Name: rubis.ClassBidding, Rate: 100, ReqSize: 512,
					Deadline: 100 * time.Millisecond, X: 1, Y: 10},
				{Name: rubis.ClassComment, Rate: 100, ReqSize: 2048,
					Deadline: 400 * time.Millisecond, X: 5, Y: 10},
			},
			RNG: sim.NewRNG(1),
			MakePayload: func(class string, seq uint64) any {
				return rubis.Request{Class: class, Seq: seq}
			},
		}); err != nil {
			return nil, err
		}
		return svc.Backends[0], nil
	}
	return nil, fmt.Errorf("unknown topology %q (want simple, nfs, or rubis)", topology)
}

// startWorkload runs a simple request/response service so the monitor has
// something to observe.
func startWorkload(server, client *simos.Node) {
	ssock := server.MustBind(80)
	csock := client.MustBind(9000)
	server.Spawn("httpd", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(2*time.Millisecond, func() {
					p.Reply(ssock, m, 8192, nil, loop)
				})
			})
		}
		loop()
	})
	client.Spawn("load", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Send(csock, ssock.Addr(), 512, nil, func() {
				p.Recv(csock, func(m *simos.Message) {
					p.Sleep(10*time.Millisecond, loop)
				})
			})
		}
		loop()
	})
}

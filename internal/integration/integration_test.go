// Package integration exercises the complete SysProf deployment the way
// cmd/sysprofd, cmd/gpad, and cmd/sysprofctl compose it: simulated
// monitored nodes, kernel instrumentation, interaction LPAs, per-node
// dissemination daemons, a pub-sub broker serving real TCP subscribers, a
// remote GPA ingesting over that connection, the GPA query protocol, the
// controller's management protocol, and procfs over HTTP.
package integration

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sysprof/internal/controller"
	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/pbio"
	"sysprof/internal/procfs"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

// stack is a fully wired SysProf deployment over one monitored pair.
type stack struct {
	eng    *sim.Engine
	server *simos.Node
	client *simos.Node
	lpa    *core.LPA
	daemon *dissem.Daemon
	broker *pubsub.Broker
	fs     *procfs.FS
	ctl    *controller.Controller
	reg    *pbio.Registry
}

func buildStack(t *testing.T) *stack {
	t.Helper()
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	server, err := simos.NewNode(eng, network, "server", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := simos.NewNode(eng, network, "client", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Connect(server.ID(), client.ID()); err != nil {
		t.Fatal(err)
	}
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg)
	fs := procfs.New()
	daemon := dissem.New(eng, broker, fs, dissem.Config{
		NodeName:      server.Name(),
		Node:          server.ID(),
		FlushInterval: 50 * time.Millisecond,
		MaxWindowAge:  100 * time.Millisecond,
	})
	lpa := core.NewLPA(server.Hub(), core.Config{OnFull: daemon.OnFull, WindowSize: 8})
	daemon.Serve(lpa)
	daemon.Start()

	ctl := controller.New(nil)
	if err := ctl.RegisterNode(server.Name(), server.Hub()); err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachLPA(server.Name(), "interactions", lpa); err != nil {
		t.Fatal(err)
	}

	// Workload.
	ssock := server.MustBind(80)
	csock := client.MustBind(9000)
	server.Spawn("httpd", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(time.Millisecond, func() {
					p.Reply(ssock, m, 4096, nil, loop)
				})
			})
		}
		loop()
	})
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
	return &stack{
		eng: eng, server: server, client: client, lpa: lpa,
		daemon: daemon, broker: broker, fs: fs, ctl: ctl, reg: reg,
	}
}

func TestFullStackOverTCP(t *testing.T) {
	st := buildStack(t)
	defer st.broker.Close()

	// Remote GPA over real TCP, as cmd/gpad does.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = st.broker.Serve(l) }()
	sub, err := pubsub.Dial(l.Addr().String(), st.reg, dissem.ChannelInteractions)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	wall := time.Now()
	g := gpa.New(gpa.Config{LoadWindow: time.Hour}, func() time.Duration { return time.Since(wall) })
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			_, rec, err := sub.Recv()
			if err != nil {
				return
			}
			switch w := rec.Value.(type) {
			case *core.RecordColumns:
				g.IngestColumns(w)
			default:
				t.Errorf("interactions channel delivered %T (format %q), want *core.RecordColumns", rec.Value, rec.Format)
			}
		}
	}()

	// Let the TCP handshake land before traffic flows, then run the
	// virtual cluster for 2 s of virtual time in paced slices so the
	// broker publishes incrementally.
	deadline := time.Now().Add(5 * time.Second)
	for st.broker.Stats().RemoteDeliver == 0 {
		if err := st.eng.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no remote deliveries; broker stats %+v", st.broker.Stats())
		}
	}
	if err := st.eng.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st.daemon.Stop()

	// Wait for the subscriber to drain what was published.
	deadline = time.Now().Add(5 * time.Second)
	want := st.broker.Stats().RemoteDeliver
	for uint64(g.StatsSnapshot().Ingested) < want {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d published", g.StatsSnapshot().Ingested, want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The GPA sees the server's interactions.
	load := g.ServerLoad(st.server.ID())
	if load.Interactions == 0 {
		t.Fatal("GPA reports no load for the monitored server")
	}
	if load.MeanResidence < time.Millisecond {
		t.Fatalf("mean residence %v, want >= handler compute", load.MeanResidence)
	}

	// GPA query protocol over TCP.
	ql, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ql.Close()
	go g.Serve(ql)
	reply := queryLine(t, ql.Addr().String(), fmt.Sprintf("load %d", st.server.ID()))
	if !strings.Contains(reply, "mean_residence=") {
		t.Fatalf("query reply = %q", reply)
	}
	reply = queryLine(t, ql.Addr().String(), "accounting")
	if !strings.Contains(reply, "port:80") {
		t.Fatalf("accounting reply = %q", reply)
	}
}

func TestControllerOverTCPDrivesLiveLPA(t *testing.T) {
	st := buildStack(t)
	defer st.broker.Close()

	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	go st.ctl.Serve(cl)

	// Run some traffic, then switch granularity remotely and verify.
	if err := st.eng.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	reply := queryLine(t, cl.Addr().String(), "granularity server interactions class")
	if reply != "ok" {
		t.Fatalf("granularity reply = %q", reply)
	}
	if st.lpa.Granularity() != core.PerClass {
		t.Fatal("remote command did not take effect")
	}
	reply = queryLine(t, cl.Addr().String(), "status")
	if !strings.Contains(reply, "granularity=class") {
		t.Fatalf("status = %q", reply)
	}
	// Bad command gets a protocol-level error.
	conn, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "bogus\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "-") {
		t.Fatalf("error reply = %q", line)
	}
}

func TestProcfsOverHTTPServesLiveState(t *testing.T) {
	st := buildStack(t)
	defer st.broker.Close()
	if err := st.eng.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.fs)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/sysprof/server/lpa/0/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "interactions=") {
		t.Fatalf("procfs stats = %q", body)
	}
	// The monitored server really processed interactions.
	if !strings.Contains(string(body), "events=") || strings.Contains(string(body), "events=0 ") {
		t.Fatalf("no events in %q", body)
	}
}

// queryLine sends one command over the +/-/. framed protocol and returns
// the payload.
func queryLine(t *testing.T, addr, cmd string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	first, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	first = strings.TrimRight(first, "\n")
	if strings.HasPrefix(first, "-") {
		t.Fatalf("query %q failed: %s", cmd, first)
	}
	var sb strings.Builder
	sb.WriteString(strings.TrimPrefix(first, "+"))
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == ".\n" {
			return sb.String()
		}
		sb.WriteString("\n" + strings.TrimRight(line, "\n"))
	}
}

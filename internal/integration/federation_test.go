package integration

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// fedStack is a federated deployment: both endpoints of a monitored pair
// run full dissemination stacks into one broker, and a third node, batch,
// is monitored at class granularity — it ships aggregate deltas, never
// records; a monolithic GPA subscribes unsharded while N shard GPAs
// subscribe with shard selectors, exactly as `gpad -shard i/N` does, to
// both channels, and a frontend merges the shard query endpoints over
// real TCP.
type fedStack struct {
	eng      *sim.Engine
	server   *simos.Node
	client   *simos.Node
	batch    *simos.Node
	batchLPA *core.LPA
	daemons  []*dissem.Daemon // server's, client's, batch's
	broker   *pubsub.Broker
	reg      *pbio.Registry

	mono      *gpa.GPA
	shards    []*gpa.GPA
	listeners []net.Listener  // shard query listeners
	served    []chan struct{} // closed when the shard's Serve has returned
	frontend  *gpa.Frontend
	dials     atomic.Int32 // shard connections the frontend opened

	// Aggregate deltas each subscriber received off its socket.
	monoDeltas  atomic.Uint64
	shardDeltas []atomic.Uint64
}

func buildFedStack(t *testing.T, nShards int) *fedStack {
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
	batch, err := simos.NewNode(eng, network, "batch", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*simos.Node{server, batch} {
		if err := network.Connect(n.ID(), client.ID()); err != nil {
			t.Fatal(err)
		}
	}
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg, pubsub.WithQueueDepth(4096))
	fs := procfs.New()

	// Monitor BOTH endpoints so interactions have two views to correlate.
	st := &fedStack{eng: eng, server: server, client: client, batch: batch, broker: broker, reg: reg,
		shardDeltas: make([]atomic.Uint64, nShards)}
	for _, n := range []*simos.Node{server, client, batch} {
		daemon := dissem.New(eng, broker, fs, dissem.Config{
			NodeName:      n.Name(),
			Node:          n.ID(),
			FlushInterval: 50 * time.Millisecond,
			MaxWindowAge:  100 * time.Millisecond,
		})
		cfg := core.Config{OnFull: daemon.OnFull, WindowSize: 8}
		if n == batch {
			cfg.Granularity = core.PerClass
		}
		lpa := core.NewLPA(n.Hub(), cfg)
		if n == batch {
			st.batchLPA = lpa
		}
		daemon.Serve(lpa)
		daemon.Start()
		st.daemons = append(st.daemons, daemon)
	}

	// Workload: the client drives a request loop against each server.
	for i, srv := range []*simos.Node{server, batch} {
		ssock := srv.MustBind(80)
		csock := client.MustBind(uint16(9000 + i))
		srv.Spawn("httpd", func(p *simos.Process) {
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
	}

	// Broker over real TCP.
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = broker.Serve(bl) }()
	addr := bl.Addr().String()

	wall := time.Now()
	now := func() time.Duration { return time.Since(wall) }
	subscribe := func(g *gpa.GPA, sub *pubsub.Subscriber, deltas *atomic.Uint64) {
		go func() {
			defer sub.Close()
			for {
				ch, rec, err := sub.Recv()
				if err != nil {
					return
				}
				switch w := rec.Value.(type) {
				case *core.RecordColumns:
					g.IngestColumns(w)
				case []dissem.WireAggregate:
					if ch != dissem.ChannelAggregates {
						t.Errorf("aggregate deltas arrived on channel %q", ch)
					}
					for _, a := range w {
						g.IngestAggregate(a.Node, a.Aggregate)
					}
					deltas.Add(uint64(len(w)))
				default:
					t.Errorf("channel %q delivered %T (format %q)", ch, rec.Value, rec.Format)
				}
			}
		}()
	}

	// Monolithic reference: unsharded subscription, full stream.
	st.mono = gpa.New(gpa.Config{LoadWindow: time.Hour}, now)
	monoSub, err := pubsub.Dial(addr, reg, dissem.ChannelInteractions, dissem.ChannelAggregates)
	if err != nil {
		t.Fatal(err)
	}
	subscribe(st.mono, monoSub, &st.monoDeltas)

	// Shard analyzers: selector-scoped subscriptions plus query servers.
	endpoints := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		g := gpa.New(gpa.Config{LoadWindow: time.Hour}, now)
		sub, err := pubsub.DialSharded(addr, reg, i, nShards, dissem.ChannelInteractions, dissem.ChannelAggregates)
		if err != nil {
			t.Fatal(err)
		}
		subscribe(g, sub, &st.shardDeltas[i])
		ql, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			g.Serve(ql)
		}()
		st.served = append(st.served, served)
		st.shards = append(st.shards, g)
		st.listeners = append(st.listeners, ql)
		endpoints[i] = ql.Addr().String()
	}
	st.frontend, err = gpa.NewFrontend(endpoints, gpa.WithQueryTimeout(2*time.Second),
		gpa.WithDialFunc(func(addr string) (net.Conn, error) {
			st.dials.Add(1)
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}))
	if err != nil {
		t.Fatal(err)
	}
	// Every handshake must be registered before traffic flows: a link
	// that registers late misses the early frames the others received,
	// and the monolithic and sharded ingest counts never converge.
	deadline := time.Now().Add(5 * time.Second)
	for len(broker.Subscribers()) < nShards+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d subscribers registered", len(broker.Subscribers()), nShards+1)
		}
		time.Sleep(time.Millisecond)
	}
	return st
}

func (st *fedStack) close() {
	st.frontend.Close()
	st.broker.Close()
	for _, l := range st.listeners {
		l.Close()
	}
}

// runAndDrain paces the simulation, stops the daemons, and waits until
// the shard analyzers have collectively ingested exactly what the
// monolithic one did.
func (st *fedStack) runAndDrain(t *testing.T) {
	t.Helper()
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
	for _, d := range st.daemons {
		d.Stop()
	}
	// Drain until both pipelines agree AND have stopped moving: equal
	// counts alone can be a transient coincidence while both are behind.
	deadline = time.Now().Add(10 * time.Second)
	var prev uint64
	stable := 0
	for {
		mono := st.mono.StatsSnapshot().Ingested
		var sharded uint64
		for _, g := range st.shards {
			sharded += g.StatsSnapshot().Ingested
		}
		if mono > 100 && sharded == mono && mono == prev {
			if stable++; stable >= 5 {
				return
			}
		} else {
			stable = 0
		}
		prev = mono
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: monolithic ingested %d, shards %d", mono, sharded)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// e2eIdent is a comparable identity for a correlated interaction.
func e2eIdent(e gpa.EndToEnd) string {
	return fmt.Sprintf("%s|%d:%d|%d:%d", e.Flow, e.Client.Node, e.Client.ID, e.Server.Node, e.Server.ID)
}

func identSet(recs []gpa.EndToEnd) map[string]bool {
	out := make(map[string]bool, len(recs))
	for _, e := range recs {
		out[e2eIdent(e)] = true
	}
	return out
}

// TestFederatedTierMatchesMonolithicOverTCP runs the same simnet workload
// into a monolithic GPA and a sharded gpad tier (selector-scoped pub-sub
// subscriptions over real TCP, frontend merging over the real query
// protocol) and checks the federation reports identical correlated sets
// and class aggregates.
func TestFederatedTierMatchesMonolithicOverTCP(t *testing.T) {
	st := buildFedStack(t, 2)
	defer st.close()
	st.runAndDrain(t)

	mono := st.mono.Correlated()
	if len(mono) == 0 {
		t.Fatal("monolithic analyzer correlated nothing; workload broken")
	}
	fed, fst, err := st.frontend.Correlated()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Partial {
		t.Fatalf("unexpected partial result: %+v", fst)
	}
	monoSet, fedSet := identSet(mono), identSet(fed)
	if len(fedSet) != len(monoSet) {
		t.Fatalf("correlated sets differ: federation %d, monolithic %d", len(fedSet), len(monoSet))
	}
	for k := range monoSet {
		if !fedSet[k] {
			t.Fatalf("federation missing %s", k)
		}
	}
	// Both shards did real work: the flow hash spreads distinct flows, and
	// every interaction correlated somewhere.
	var fromShards int
	for _, g := range st.shards {
		fromShards += len(g.Correlated())
	}
	if fromShards != len(mono) {
		t.Fatalf("shards correlated %d, monolithic %d — records crossed shard boundaries",
			fromShards, len(mono))
	}

	// Class aggregates merge to the monolithic values.
	monoAgg := st.mono.ClassAggregatesAll()
	fedAgg, _, err := st.frontend.ClassAggregatesAll()
	if err != nil {
		t.Fatal(err)
	}
	for node, classes := range monoAgg {
		for class, want := range classes {
			if got := fedAgg[node][class]; got != want {
				t.Fatalf("node %d class %q: federation %+v, monolithic %+v", node, class, got, want)
			}
		}
	}

	// Load via the merged protocol matches the monolithic analyzer.
	wantLoad := st.mono.ServerLoad(st.server.ID())
	gotLoad, _, err := st.frontend.ServerLoad(st.server.ID())
	if err != nil {
		t.Fatal(err)
	}
	if gotLoad != wantLoad {
		t.Fatalf("server load: federation %+v, monolithic %+v", gotLoad, wantLoad)
	}

	// The merged stream is in completion order.
	seqs, _, err := st.frontend.CorrelatedSeq()
	if err != nil {
		t.Fatal(err)
	}
	done := func(e gpa.EndToEnd) time.Duration {
		d := e.Client.End
		if e.Server.End > d {
			d = e.Server.End
		}
		return d
	}
	if !sort.SliceIsSorted(seqs, func(i, j int) bool {
		return done(seqs[i].EndToEnd) < done(seqs[j].EndToEnd)
	}) {
		t.Fatal("merged federation stream not in completion order")
	}
}

// TestFederatedAggregatesReachExactlyOneShard: the aggregate deltas of a
// node monitored at class granularity ride the same sharded links as the
// interaction batches, with nothing installed on the broker to route
// them. Every delta the daemon published reaches the unsharded analyzer
// and exactly one shard — the one the GPA itself stripes that node's
// aggregates to — so the federation bills what the monolithic analyzer
// bills, down to the interactions Stop force-closed.
func TestFederatedAggregatesReachExactlyOneShard(t *testing.T) {
	st := buildFedStack(t, 2)
	defer st.close()
	st.runAndDrain(t)

	ds := st.daemons[2].Stats()
	if ds.AggregatesPublished == 0 || ds.AggregatesDropped != 0 || ds.RecordsPublished != 0 {
		t.Fatalf("batch node's daemon stats = %+v, want aggregate deltas only", ds)
	}
	if got := st.monoDeltas.Load(); got != ds.AggregatesPublished {
		t.Fatalf("unsharded subscriber received %d deltas, the daemon published %d", got, ds.AggregatesPublished)
	}
	owner := int(simnet.NodeShardHash(st.batch.ID()) % uint64(len(st.shards)))
	for i := range st.shardDeltas {
		want := uint64(0)
		if i == owner {
			want = ds.AggregatesPublished
		}
		if got := st.shardDeltas[i].Load(); got != want {
			t.Fatalf("shard %d received %d deltas, want %d (node %d belongs to shard %d)", i, got, want, st.batch.ID(), owner)
		}
	}

	var billed uint64
	for _, agg := range st.mono.ClassAggregatesAll()[st.batch.ID()] {
		billed += agg.Count
	}
	if want := st.batchLPA.Stats().Interactions; want == 0 || billed != want {
		t.Fatalf("analyzer holds %d interactions for the batch node, its LPA closed %d", billed, want)
	}
	mono, err := st.mono.Execute("accounting")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := st.frontend.Execute("accounting")
	if err != nil {
		t.Fatal(err)
	}
	if fed != mono || !strings.Contains(mono, "port:80") {
		t.Fatalf("accounting differs:\nfederation:\n%s\nmonolithic:\n%s", fed, mono)
	}
}

// TestFederatedTierSurvivesDeadShard kills one shard's query endpoint
// mid-run and checks the frontend returns partial results with the
// staleness marker — over the real TCP query protocol — instead of
// failing.
func TestFederatedTierSurvivesDeadShard(t *testing.T) {
	st := buildFedStack(t, 2)
	defer st.close()
	st.runAndDrain(t)

	// Kill shard 1's query endpoint.
	st.listeners[1].Close()

	fed, fst, err := st.frontend.Correlated()
	if err != nil {
		t.Fatalf("dead shard must degrade, not error: %v", err)
	}
	if !fst.Partial || len(fst.Dead) != 1 || fst.Dead[0] != 1 {
		t.Fatalf("status = %+v, want partial with dead shard 1", fst)
	}
	want := identSet(st.shards[0].Correlated())
	got := identSet(fed)
	if len(got) != len(want) {
		t.Fatalf("partial result has %d interactions, want shard 0's %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("partial result missing live-shard interaction %s", k)
		}
	}

	// The federation's own query protocol carries the envelope end to end.
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	go st.frontend.Serve(fl)
	reply := queryLine(t, fl.Addr().String(), "jstats")
	var env struct {
		Federation gpa.FederationStatus `json:"federation"`
	}
	if err := json.Unmarshal([]byte(reply), &env); err != nil {
		t.Fatalf("jstats reply %q: %v", reply, err)
	}
	if !env.Federation.Partial || len(env.Federation.Dead) != 1 {
		t.Fatalf("federation envelope = %+v, want partial", env.Federation)
	}
	textual := queryLine(t, fl.Addr().String(), "stats")
	if !strings.Contains(textual, "! partial: 1/2 shards answered") {
		t.Fatalf("textual reply missing staleness marker: %q", textual)
	}
}

// TestFederatedTierRedialsRestartedShard: the frontend keeps one TCP
// connection per shard across queries, and a shard whose query endpoint
// goes down and comes back on the same address costs the next query one
// re-dial — the answer is whole, with no partial marker.
func TestFederatedTierRedialsRestartedShard(t *testing.T) {
	st := buildFedStack(t, 2)
	defer st.close()
	st.runAndDrain(t)

	want := len(st.mono.Correlated())
	ask := func(when string) {
		t.Helper()
		fed, fst, err := st.frontend.Correlated()
		if err != nil || fst.Partial || len(fed) != want {
			t.Fatalf("%s: %d interactions, status %+v, err %v; want all %d", when, len(fed), fst, err, want)
		}
	}
	for i := 0; i < 10; i++ {
		ask("steady state")
	}
	if n := st.dials.Load(); n != 2 {
		t.Fatalf("10 queries over 2 shards dialed %d times, want 2", n)
	}

	// Restart shard 1's query endpoint: closing the listener ends the
	// connection the frontend kept; the same analyzer serves the same
	// address again.
	addr := st.listeners[1].Addr().String()
	st.listeners[1].Close()
	<-st.served[1]
	ql, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	st.listeners[1] = ql
	go st.shards[1].Serve(ql)

	ask("after the restart")
	if n := st.dials.Load(); n != 3 {
		t.Fatalf("restart cost %d dials, want exactly one re-dial", n-2)
	}
}

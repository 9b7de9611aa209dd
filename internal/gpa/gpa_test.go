package gpa

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

var flow = simnet.FlowKey{
	Src: simnet.Addr{Node: 1, Port: 1000},
	Dst: simnet.Addr{Node: 2, Port: 80},
}

func clientRec(id uint64, start time.Duration) core.Record {
	return core.Record{
		ID: id, Node: 1, Flow: flow, Class: "port:80",
		Start: start, End: start + 10*time.Millisecond,
	}
}

func serverRec(id uint64, start time.Duration) core.Record {
	return core.Record{
		ID: id, Node: 2, Flow: flow, Class: "port:80",
		Start: start + time.Millisecond, End: start + 8*time.Millisecond,
		BufferWait: 2 * time.Millisecond,
	}
}

func newGPA(cfg Config) (*GPA, *time.Duration) {
	now := new(time.Duration)
	return New(cfg, func() time.Duration { return *now }), now
}

func TestCorrelatesTwoSides(t *testing.T) {
	g, _ := newGPA(Config{})
	g.Ingest(clientRec(1, 0))
	g.Ingest(serverRec(9, 0))
	got := g.Correlated()
	if len(got) != 1 {
		t.Fatalf("correlated %d, want 1", len(got))
	}
	e := got[0]
	if e.Server.Node != 2 || e.Client.Node != 1 {
		t.Fatalf("sides wrong: %+v", e)
	}
	// Client residence 10ms, server 7ms => ~3ms network.
	if e.NetworkDelay() != 3*time.Millisecond {
		t.Fatalf("NetworkDelay = %v", e.NetworkDelay())
	}
	if g.PendingCount() != 0 {
		t.Fatalf("pending = %d", g.PendingCount())
	}
}

func TestCorrelationOrderIndependent(t *testing.T) {
	g, _ := newGPA(Config{})
	g.Ingest(serverRec(1, 0))
	g.Ingest(clientRec(2, 0))
	if len(g.Correlated()) != 1 {
		t.Fatal("server-first ingestion did not correlate")
	}
}

func TestCorrelationRespectsWindow(t *testing.T) {
	g, _ := newGPA(Config{CorrelationWindow: time.Millisecond})
	g.Ingest(clientRec(1, 0))
	g.Ingest(serverRec(2, 10*time.Millisecond)) // too far apart
	if len(g.Correlated()) != 0 {
		t.Fatal("correlated records outside window")
	}
	if g.PendingCount() != 2 {
		t.Fatalf("pending = %d", g.PendingCount())
	}
}

func TestCorrelationMatchesNearestConcurrent(t *testing.T) {
	// Two concurrent interactions on the same flow: each server record
	// must pair with a distinct client record.
	g, _ := newGPA(Config{CorrelationWindow: 5 * time.Millisecond})
	g.Ingest(clientRec(1, 0))
	g.Ingest(clientRec(2, 20*time.Millisecond))
	g.Ingest(serverRec(3, 0))
	g.Ingest(serverRec(4, 20*time.Millisecond))
	got := g.Correlated()
	if len(got) != 2 {
		t.Fatalf("correlated %d, want 2", len(got))
	}
	for _, e := range got {
		if absd(e.Client.Start-e.Server.Start) > 5*time.Millisecond {
			t.Fatalf("mispaired: client %v server %v", e.Client.Start, e.Server.Start)
		}
	}
}

func absd(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestSameNodeRecordsNeverPair(t *testing.T) {
	g, _ := newGPA(Config{})
	g.Ingest(clientRec(1, 0))
	g.Ingest(clientRec(2, 0))
	if len(g.Correlated()) != 0 {
		t.Fatal("two same-node records correlated")
	}
}

func TestServerLoadSlidingWindow(t *testing.T) {
	g, now := newGPA(Config{LoadWindow: 100 * time.Millisecond})
	for i := 0; i < 5; i++ {
		r := serverRec(uint64(i), time.Duration(i)*10*time.Millisecond)
		g.Ingest(r)
	}
	*now = 60 * time.Millisecond
	l := g.ServerLoad(2)
	if l.Interactions == 0 {
		t.Fatal("no load reported")
	}
	if l.MeanBufferWait != 2*time.Millisecond {
		t.Fatalf("MeanBufferWait = %v", l.MeanBufferWait)
	}
	// Advance far beyond the window: everything ages out.
	*now = 10 * time.Second
	if l := g.ServerLoad(2); l.Interactions != 0 {
		t.Fatalf("stale load: %+v", l)
	}
	if l := g.ServerLoad(99); l.Interactions != 0 {
		t.Fatal("unknown node should be idle")
	}
}

func TestClassAggregatesAndNodes(t *testing.T) {
	g, _ := newGPA(Config{})
	g.Ingest(clientRec(1, 0))
	g.Ingest(serverRec(2, 0))
	aggs := g.ClassAggregates(2)
	if aggs["port:80"].Count != 1 {
		t.Fatalf("aggs = %v", aggs)
	}
	nodes := g.Nodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
}

// TestDumpIsPageStream: a dump of a one-page history is the
// "pcorrelated" reply without its base64.
func TestDumpIsPageStream(t *testing.T) {
	g, _ := newGPA(Config{})
	g.Ingest(clientRec(1, 0))
	g.Ingest(serverRec(2, 0))
	var buf bytes.Buffer
	if n, err := g.Dump(&buf); err != nil || n != 1 {
		t.Fatalf("Dump = (%d, %v), want (1, nil)", n, err)
	}
	reply, err := g.Execute("pcorrelated")
	if err != nil {
		t.Fatal(err)
	}
	if b64(buf.Bytes()) != reply {
		t.Fatalf("dump is not the pcorrelated page:\n dump  %x\n reply %s", buf.Bytes(), reply)
	}
	if g.StatsSnapshot().Dumps != 1 {
		t.Fatal("dump not counted")
	}
}

func TestStalePendingPruned(t *testing.T) {
	g, now := newGPA(Config{CorrelationWindow: time.Millisecond, StaleAfter: 10 * time.Millisecond})
	// Client-side records whose server counterpart never arrives (the
	// server node is unmonitored): they must not accumulate forever.
	for i := 0; i < 50; i++ {
		g.Ingest(clientRec(uint64(i), time.Duration(i)*100*time.Microsecond))
	}
	if g.PendingCount() != 50 {
		t.Fatalf("pending = %d, want 50", g.PendingCount())
	}
	// Nothing is stale yet: all starts are within StaleAfter of now.
	*now = 5 * time.Millisecond
	if n := g.PruneStale(); n != 0 {
		t.Fatalf("pruned %d fresh records", n)
	}
	// Advance past StaleAfter for the first half of the records.
	*now = 10*time.Millisecond + 2500*time.Microsecond
	if n := g.PruneStale(); n != 25 {
		t.Fatalf("pruned %d, want 25", n)
	}
	if g.PendingCount() != 25 {
		t.Fatalf("pending after prune = %d, want 25", g.PendingCount())
	}
	st := g.StatsSnapshot()
	if st.StalePruned != 25 || st.Uncorrelated != 25 {
		t.Fatalf("stats = %+v", st)
	}
	// Far future: everything goes.
	*now = time.Hour
	g.PruneStale()
	if g.PendingCount() != 0 {
		t.Fatalf("pending = %d after full sweep", g.PendingCount())
	}
}

func TestStaleSweepRunsFromIngest(t *testing.T) {
	// The ingest path itself sweeps periodically (every staleSweepEvery
	// ingests per shard) — no explicit PruneStale call needed.
	g, now := newGPA(Config{Shards: 1, CorrelationWindow: time.Millisecond, StaleAfter: time.Millisecond, MaxPending: 1 << 20})
	g.Ingest(clientRec(0, 0))
	*now = time.Minute
	// Subsequent records are fresh relative to *now; pushing enough of
	// them through triggers the incremental sweep that drops record 0.
	other := flow
	other.Src.Port = 1001
	for i := 1; i <= staleSweepEvery; i++ {
		r := clientRec(uint64(i), time.Minute)
		r.Flow = other
		g.Ingest(r)
	}
	if g.StatsSnapshot().StalePruned == 0 {
		t.Fatal("ingest-path sweep never ran")
	}
}

func TestCorrelatedOrderAcrossShards(t *testing.T) {
	// Interactions on many flows land on different shards; Correlated must
	// still return them in completion order (global sequence).
	g, _ := newGPA(Config{Shards: 8})
	for i := 0; i < 100; i++ {
		f := simnet.FlowKey{
			Src: simnet.Addr{Node: simnet.NodeID(1 + i), Port: uint16(1000 + i)},
			Dst: simnet.Addr{Node: 200, Port: 80},
		}
		c := clientRec(uint64(2*i), 0)
		c.Flow = f
		c.Node = f.Src.Node
		c.ID = uint64(i) // completion order marker
		s := serverRec(uint64(2*i+1), 0)
		s.Flow = f
		s.Node = f.Dst.Node
		g.Ingest(c)
		g.Ingest(s)
	}
	got := g.Correlated()
	if len(got) != 100 {
		t.Fatalf("correlated %d, want 100", len(got))
	}
	for i, e := range got {
		if e.Client.ID != uint64(i) {
			t.Fatalf("completion order broken at %d: client ID %d", i, e.Client.ID)
		}
	}
}

func TestConcurrentIngest(t *testing.T) {
	// Many goroutines ingesting distinct flows plus concurrent queries:
	// exercised under -race this validates the shard locking.
	g, _ := newGPA(Config{Shards: 8})
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := simnet.FlowKey{
					Src: simnet.Addr{Node: simnet.NodeID(1 + w), Port: uint16(1024 + i)},
					Dst: simnet.Addr{Node: 200, Port: 80},
				}
				c := clientRec(uint64(i), 0)
				c.Flow = f
				c.Node = f.Src.Node
				s := serverRec(uint64(i), 0)
				s.Flow = f
				s.Node = f.Dst.Node
				pair := core.NewRecordColumns(2)
				pair.Append(&c)
				pair.Append(&s)
				g.IngestColumns(pair)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for g.StatsSnapshot().Ingested < workers*perWorker*2 {
			g.ServerLoad(200)
			g.PendingCount()
			g.Accounting()
		}
	}()
	wg.Wait()
	<-done
	st := g.StatsSnapshot()
	if st.Correlated != workers*perWorker {
		t.Fatalf("correlated = %d, want %d", st.Correlated, workers*perWorker)
	}
	if g.PendingCount() != 0 {
		t.Fatalf("pending = %d", g.PendingCount())
	}
}

func TestPendingBounded(t *testing.T) {
	g, _ := newGPA(Config{MaxPending: 3, CorrelationWindow: time.Nanosecond})
	for i := 0; i < 10; i++ {
		g.Ingest(clientRec(uint64(i), time.Duration(i)*time.Second))
	}
	if g.PendingCount() > 3 {
		t.Fatalf("pending = %d, want <= 3", g.PendingCount())
	}
	if g.StatsSnapshot().Uncorrelated == 0 {
		t.Fatal("evictions not counted")
	}
}

// Full pipeline: simulated kernel -> LPA -> daemon -> pub-sub -> GPA, with
// monitoring on both the client and the server node.
func TestEndToEndPipeline(t *testing.T) {
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
	defer broker.Close()

	g := New(Config{}, eng.Now)
	broker.Subscribe(dissem.ChannelInteractions, func(rec any) {
		// The daemon publishes columnar batches directly; the batch is only
		// valid during the callback, and IngestColumns copies what it keeps.
		cols, ok := rec.(*core.RecordColumns)
		if !ok {
			t.Errorf("subscriber got %T, want *core.RecordColumns", rec)
			return
		}
		g.IngestColumns(cols)
	})

	var daemons []*dissem.Daemon
	for _, n := range []*simos.Node{server, client} {
		d := dissem.New(eng, broker, nil, dissem.Config{NodeName: n.Name(), FlushInterval: 50 * time.Millisecond, MaxWindowAge: 50 * time.Millisecond})
		lpa := core.NewLPA(n.Hub(), core.Config{OnFull: d.OnFull, WindowSize: 4})
		d.Serve(lpa)
		d.Start()
		daemons = append(daemons, d)
	}

	ssock := server.MustBind(80)
	csock := client.MustBind(4000)
	server.Spawn("httpd", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(time.Millisecond, func() {
					p.Reply(ssock, m, 2000, nil, loop)
				})
			})
		}
		loop()
	})
	client.Spawn("curl", func(p *simos.Process) {
		var loop func(i int)
		loop = func(i int) {
			if i == 0 {
				return
			}
			p.Send(csock, ssock.Addr(), 300, nil, func() {
				p.Recv(csock, func(m *simos.Message) { loop(i - 1) })
			})
		}
		loop(8)
	})
	if err := eng.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, d := range daemons {
		d.Stop()
	}

	if got := len(g.Correlated()); got < 6 {
		st := g.StatsSnapshot()
		t.Fatalf("correlated %d end-to-end interactions, want >= 6 (stats %+v)", got, st)
	}
	for _, e := range g.Correlated() {
		if e.Server.ServerProc != "httpd" {
			t.Fatalf("server proc = %q", e.Server.ServerProc)
		}
		if e.NetworkDelay() <= 0 {
			t.Fatalf("network delay = %v", e.NetworkDelay())
		}
		if e.Client.Residence() <= e.Server.Residence() {
			t.Fatal("client residence should exceed server residence")
		}
	}
}

func TestIngestAggregate(t *testing.T) {
	g, _ := newGPA(Config{})
	agg := core.Aggregate{Class: "port:80", Count: 10, TotalUser: 20 * time.Millisecond}
	g.IngestAggregate(5, agg)
	g.IngestAggregate(5, agg) // second delta merges
	got := g.ClassAggregates(5)["port:80"]
	if got.Count != 20 || got.TotalUser != 40*time.Millisecond {
		t.Fatalf("merged agg = %+v", got)
	}
	rows := g.Accounting()
	if len(rows) != 1 || rows[0].Interactions != 20 {
		t.Fatalf("accounting = %+v", rows)
	}
	if g.StatsSnapshot().Ingested != 2 {
		t.Fatal("aggregate ingestion not counted")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("disk full")

func TestDumpSurfacesWriteErrors(t *testing.T) {
	g := seededGPA(t)
	if _, err := g.Dump(failWriter{}); !errors.Is(err, errWrite) {
		t.Fatalf("err = %v", err)
	}
}

func TestCorrelatedHistoryCountCap(t *testing.T) {
	// One shard so the per-shard share equals the global cap.
	g, _ := newGPA(Config{MaxCorrelated: 8, Shards: 1})
	const pairs = 40
	for i := 0; i < pairs; i++ {
		start := time.Duration(i) * time.Millisecond
		g.Ingest(clientRec(uint64(i*2+1), start))
		g.Ingest(serverRec(uint64(i*2+2), start))
	}
	got := g.Correlated()
	if len(got) == 0 || len(got) > 8+8/4 {
		t.Fatalf("history = %d, want in (0, %d] (cap + hysteresis)", len(got), 8+8/4)
	}
	// The survivors are the newest interactions, still in order.
	if last := got[len(got)-1]; last.Client.Start != time.Duration(pairs-1)*time.Millisecond {
		t.Fatalf("newest retained start = %v, want %v", last.Client.Start, time.Duration(pairs-1)*time.Millisecond)
	}
	st := g.StatsSnapshot()
	if st.Correlated != pairs {
		t.Fatalf("Correlated = %d, want %d (eviction must not undercount correlations)", st.Correlated, pairs)
	}
	if st.CorrelatedEvicted == 0 || st.CorrelatedEvicted != uint64(pairs-len(got)) {
		t.Fatalf("CorrelatedEvicted = %d, want %d", st.CorrelatedEvicted, pairs-len(got))
	}
}

func TestCorrelatedHistoryAgeEviction(t *testing.T) {
	g, now := newGPA(Config{MaxCorrelatedAge: 50 * time.Millisecond, Shards: 1})
	g.Ingest(clientRec(1, 0)) // completes at 10ms
	g.Ingest(serverRec(2, 0))
	*now = 200 * time.Millisecond
	g.Ingest(clientRec(3, 195*time.Millisecond)) // completes at 205ms
	g.Ingest(serverRec(4, 195*time.Millisecond))
	g.PruneStale() // age trim rides the stale sweep
	got := g.Correlated()
	if len(got) != 1 || got[0].Client.ID != 3 {
		t.Fatalf("after age eviction got %d interactions %+v, want just the fresh one", len(got), got)
	}
	if st := g.StatsSnapshot(); st.CorrelatedEvicted != 1 {
		t.Fatalf("CorrelatedEvicted = %d, want 1", st.CorrelatedEvicted)
	}
}

func TestDumpAndTruncate(t *testing.T) {
	g, _ := newGPA(Config{})
	for i := 0; i < 3; i++ {
		start := time.Duration(i) * time.Millisecond
		g.Ingest(clientRec(uint64(i*2+1), start))
		g.Ingest(serverRec(uint64(i*2+2), start))
	}
	var buf bytes.Buffer
	n, err := g.DumpAndTruncate(&buf)
	if err != nil || n != 3 {
		t.Fatalf("DumpAndTruncate = (%d, %v), want (3, nil)", n, err)
	}
	if recs, err := LoadDump(bytes.NewReader(buf.Bytes())); err != nil || len(recs) != 3 {
		t.Fatalf("dump loads %d interactions (err %v), want 3", len(recs), err)
	}
	if left := g.Correlated(); len(left) != 0 {
		t.Fatalf("history not truncated: %d left", len(left))
	}
	st := g.StatsSnapshot()
	if st.Dumps != 1 || st.CorrelatedEvicted != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Aggregates and counters survive truncation; a second dump is empty.
	if aggs := g.ClassAggregates(2); len(aggs) == 0 {
		t.Fatal("aggregates lost by truncation")
	}
	if n, err := g.DumpAndTruncate(&buf); err != nil || n != 0 {
		t.Fatalf("second DumpAndTruncate = (%d, %v), want (0, nil)", n, err)
	}
}

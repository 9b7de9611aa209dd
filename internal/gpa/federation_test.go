package gpa

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/lineproto"
	"sysprof/internal/simnet"
)

// fedHarness is an in-process federation: N shard analyzers plus a
// monolithic reference analyzer fed the same records, and a Frontend
// whose dial function pipes to the shard query servers (endpoint "i" =
// shard i). kill takes a shard down the way a dead process goes: dials
// fail and the pipes already open to it are severed; revive lets it be
// dialed again. A non-zero frameRows makes every shard cut its page's
// half frames that short, so small histories exercise the multi-frame
// path.
type fedHarness struct {
	shards    []*GPA
	mono      *GPA
	fe        *Frontend
	frameRows int

	mu    sync.Mutex
	dead  map[int]bool
	pipes map[int][]net.Conn // shard ends of the pipes dialed so far
	dials map[int]int

	openConns atomic.Int32 // frontend ends dialed and not yet closed
	clock     atomic.Int64 // every analyzer's now; zero unless a test moves it
}

func (h *fedHarness) now() time.Duration { return time.Duration(h.clock.Load()) }

// harnessConn is the frontend's end of a pipe; closing it is counted.
type harnessConn struct {
	net.Conn
	h *fedHarness
}

func (c *harnessConn) Close() error {
	c.h.openConns.Add(-1)
	return c.Conn.Close()
}

// open reports how many connections the frontend holds, idle or in use.
func (h *fedHarness) open() int { return int(h.openConns.Load()) }

func (h *fedHarness) kill(idx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dead[idx] = true
	for _, c := range h.pipes[idx] {
		c.Close()
	}
	h.pipes[idx] = nil
}

func (h *fedHarness) revive(idx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dead[idx] = false
}

// dialed reports how many times shard idx was dialed successfully.
func (h *fedHarness) dialed(idx int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dials[idx]
}

// serve answers one query connection for shard g.
func (h *fedHarness) serve(g *GPA, conn net.Conn) {
	lineproto.ServeConn(conn, func(line string) (string, error) {
		if fields := strings.Fields(line); h.frameRows > 0 && len(fields) > 0 && fields[0] == "pcorrelated" {
			n, err := tailCount(fields[1:])
			if err != nil {
				return "", err
			}
			return g.correlatedPage(n, h.frameRows)
		}
		return g.Execute(line)
	})
}

func newFedHarness(t testing.TB, n int, cfg Config) *fedHarness {
	t.Helper()
	h := &fedHarness{
		dead: make(map[int]bool), pipes: make(map[int][]net.Conn), dials: make(map[int]int),
	}
	h.mono = New(cfg, h.now)
	for i := 0; i < n; i++ {
		h.shards = append(h.shards, New(cfg, h.now))
	}
	h.fe = h.frontend(t)
	return h
}

// frontend builds a frontend over every shard of the harness, endpoint
// "i" dialing shard i through a pipe.
func (h *fedHarness) frontend(t testing.TB) *Frontend {
	t.Helper()
	endpoints := make([]string, len(h.shards))
	for i := range endpoints {
		endpoints[i] = strconv.Itoa(i)
	}
	fe, err := NewFrontend(endpoints, WithDialFunc(h.dial))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	return fe
}

// dial opens a pipe to the shard endpoint addr names, unless it is dead.
func (h *fedHarness) dial(addr string) (net.Conn, error) {
	idx, err := strconv.Atoi(addr)
	if err != nil || idx < 0 || idx >= len(h.shards) {
		return nil, fmt.Errorf("bad endpoint %q", addr)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead[idx] {
		return nil, errors.New("connection refused")
	}
	c1, c2 := net.Pipe()
	h.pipes[idx] = append(h.pipes[idx], c2)
	h.dials[idx]++
	h.openConns.Add(1)
	go func() {
		defer c2.Close()
		h.serve(h.shards[idx], c2)
	}()
	return &harnessConn{Conn: c1, h: h}, nil
}

// ingest routes rec to its owning shard — the same flow-hash modulo the
// dissemination layer uses — and to the monolithic reference.
func (h *fedHarness) ingest(rec core.Record) {
	h.shards[rec.Flow.ShardHash()%uint64(len(h.shards))].Ingest(rec)
	h.mono.Ingest(rec)
}

// workload ingests both sides of interactions on `flows` distinct flows,
// `perFlow` interactions each, spread over client nodes 10.. and server
// nodes 1..3.
func (h *fedHarness) workload(flows, perFlow int) {
	id := uint64(0)
	for f := 0; f < flows; f++ {
		fl := simnet.FlowKey{
			Src: simnet.Addr{Node: simnet.NodeID(10 + f), Port: uint16(1000 + f)},
			Dst: simnet.Addr{Node: simnet.NodeID(1 + f%3), Port: 80},
		}
		for i := 0; i < perFlow; i++ {
			start := time.Duration(f*perFlow+i) * time.Millisecond
			id++
			h.ingest(core.Record{
				ID: id, Node: fl.Src.Node, Flow: fl, Class: "port:80",
				Start: start, End: start + 10*time.Millisecond,
			})
			id++
			h.ingest(core.Record{
				ID: id, Node: fl.Dst.Node, Flow: fl, Class: "port:80",
				Start: start + time.Millisecond, End: start + 8*time.Millisecond,
				BufferWait: 2 * time.Millisecond,
			})
		}
	}
}

// e2eKey is a comparable identity for one correlated interaction.
func e2eKey(e EndToEnd) string {
	return fmt.Sprintf("%s|%d:%d|%d:%d", e.Flow, e.Client.Node, e.Client.ID, e.Server.Node, e.Server.ID)
}

func e2eKeySet(recs []EndToEnd) map[string]bool {
	out := make(map[string]bool, len(recs))
	for _, e := range recs {
		out[e2eKey(e)] = true
	}
	return out
}

// TestFederationMatchesMonolithic feeds the same workload to a federated
// tier (shard-routed by flow hash) and a monolithic analyzer and checks
// the merged federation answers equal the monolithic ones: identical
// correlated sets, class aggregates, node sets, and summed counters.
func TestFederationMatchesMonolithic(t *testing.T) {
	h := newFedHarness(t, 4, Config{})
	h.workload(24, 5)

	mono := h.mono.Correlated()
	fed, st, err := h.fe.Correlated()
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial {
		t.Fatalf("unexpected partial status: %+v", st)
	}
	if len(fed) != len(mono) || len(mono) != 24*5 {
		t.Fatalf("correlated: federation %d, monolithic %d, want %d", len(fed), len(mono), 24*5)
	}
	monoSet, fedSet := e2eKeySet(mono), e2eKeySet(fed)
	for k := range monoSet {
		if !fedSet[k] {
			t.Fatalf("federation missing correlated interaction %s", k)
		}
	}
	for k := range fedSet {
		if !monoSet[k] {
			t.Fatalf("federation has extra correlated interaction %s", k)
		}
	}
	// The merged stream is renumbered into one completion order.
	seqs, _, err := h.fe.CorrelatedSeq()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range seqs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("merged seq[%d] = %d, want %d", i, r.Seq, i+1)
		}
	}

	// Class aggregates, per node.
	monoAgg := h.mono.ClassAggregatesAll()
	fedAgg, _, err := h.fe.ClassAggregatesAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(fedAgg) != len(monoAgg) {
		t.Fatalf("aggregate node count: federation %d, monolithic %d", len(fedAgg), len(monoAgg))
	}
	for node, classes := range monoAgg {
		for class, want := range classes {
			if got := fedAgg[node][class]; got != want {
				t.Fatalf("node %d class %q: federation %+v, monolithic %+v", node, class, got, want)
			}
		}
	}

	// Node sets and counters.
	monoNodes := h.mono.Nodes()
	fedNodes, _, err := h.fe.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fedNodes) != fmt.Sprint(monoNodes) {
		t.Fatalf("nodes: federation %v, monolithic %v", fedNodes, monoNodes)
	}
	monoStats := h.mono.StatsSnapshot()
	fedStats, _, err := h.fe.StatsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fedStats.Ingested != monoStats.Ingested || fedStats.Correlated != monoStats.Correlated {
		t.Fatalf("stats: federation %+v, monolithic %+v", fedStats, monoStats)
	}

	// Per-node load merges to the same weighted means.
	for _, node := range monoNodes {
		want := h.mono.ServerLoad(node)
		got, _, err := h.fe.ServerLoad(node)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("load node %d: federation %+v, monolithic %+v", node, got, want)
		}
	}
}

// TestFederationDeadShardPartialResults kills one shard and checks the
// frontend degrades: queries succeed, return the union of the live
// shards' data, and carry the explicit partial-status marker naming the
// dead shard. Killing every shard is an error, not an empty answer.
func TestFederationDeadShardPartialResults(t *testing.T) {
	h := newFedHarness(t, 4, Config{})
	h.workload(24, 5)
	h.kill(2)

	// Expected survivors: everything the live shards correlated.
	var want []EndToEnd
	for i, s := range h.shards {
		if i != 2 {
			want = append(want, s.Correlated()...)
		}
	}

	fed, st, err := h.fe.Correlated()
	if err != nil {
		t.Fatalf("dead shard must degrade, not error: %v", err)
	}
	if !st.Partial || len(st.Dead) != 1 || st.Dead[0] != 2 || len(st.Errors) != 1 {
		t.Fatalf("status = %+v, want partial with dead shard 2", st)
	}
	if len(fed) != len(want) || len(fed) >= 24*5 {
		t.Fatalf("partial correlated = %d, want %d (< %d)", len(fed), len(want), 24*5)
	}
	wantSet, fedSet := e2eKeySet(want), e2eKeySet(fed)
	for k := range wantSet {
		if !fedSet[k] {
			t.Fatalf("partial result missing live-shard interaction %s", k)
		}
	}
	for k := range fedSet {
		if !wantSet[k] {
			t.Fatalf("partial result contains dead-shard interaction %s", k)
		}
	}

	// The textual protocol carries the staleness marker.
	out, err := h.fe.Execute("stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "! partial: 3/4 shards answered") || !strings.Contains(out, "dead: 2") {
		t.Fatalf("textual reply missing staleness marker: %q", out)
	}

	// Status probe agrees.
	if ps := h.fe.Status(); !ps.Partial || len(ps.Dead) != 1 || ps.Dead[0] != 2 {
		t.Fatalf("Status() = %+v, want dead shard 2", ps)
	}

	// All shards dead: explicit error.
	for i := range h.shards {
		h.kill(i)
	}
	if _, _, err := h.fe.Correlated(); err == nil {
		t.Fatal("all shards dead must be an error, not an empty result")
	}
}

// TestFederationRetentionBroadcast drives the retention knob through the
// frontend and checks every live shard applied it.
func TestFederationRetentionBroadcast(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	h.workload(16, 8) // 128 correlated, spread across shards

	out, err := h.fe.Execute("retention 8")
	if err != nil {
		t.Fatal(err)
	}
	if out != "shard 0: retention=8\nshard 1: retention=8" {
		t.Fatalf("retention broadcast replied %q", out)
	}
	// Trigger trims by correlating more on each shard.
	h.workload(16, 8)
	for i, s := range h.shards {
		// Per-shard cap is split over the GPA's internal stripes with 25%
		// hysteresis; the observable bound is cap + cap/4 per stripe.
		if n := len(s.Correlated()); n > 8+8/4 {
			t.Fatalf("shard %d holds %d correlated after retention 8 (limit %d)", i, n, 8+8/4)
		}
	}
	if _, err := h.fe.Execute("retention -1"); err == nil {
		t.Fatal("negative retention accepted")
	}
}

// TestFrontendExecuteEnvelope checks the machine-readable federation
// replies carry the status envelope.
func TestFrontendExecuteEnvelope(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	h.workload(8, 2)
	h.kill(1)

	out, err := h.fe.Execute("jstats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"federation"`) || !strings.Contains(out, `"partial":true`) ||
		!strings.Contains(out, `"dead":[1]`) {
		t.Fatalf("jstats envelope missing partial federation status: %s", out)
	}
	if _, err := h.fe.Execute("bogus"); err == nil {
		t.Fatal("unknown federation query accepted")
	}
}

// TestCorrelatedSeqMergeOrder checks the k-way merge sorts by completion
// time across shards even when one shard's stream completes later.
func TestCorrelatedSeqMergeOrder(t *testing.T) {
	h := newFedHarness(t, 4, Config{})
	h.workload(24, 3)
	recs, _, err := h.fe.CorrelatedSeq()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(recs, func(i, j int) bool {
		return recs[i].done() < recs[j].done()
	}) {
		t.Fatal("merged stream is not in completion order")
	}
}

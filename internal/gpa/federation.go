package gpa

// Federated GPA tier. A single analyzer process is the aggregation point
// for every monitored node; past a few hundred nodes its ingest rate and
// correlated-history memory become the system bottleneck. The federated
// tier splits the analyzer across N gpad processes, each running the same
// GPA but subscribed to shard i/N of the record stream (the pub-sub
// broker routes by simnet.FlowKey.ShardHash, the same hash that picks the
// in-process lock stripe, so both endpoints of an interaction always
// reach the same process and correlation never crosses a process
// boundary). The Frontend here is the merge component: it fans each
// query out to the shard processes over their existing query/TCP
// endpoints and merges the decoded replies — every one a pbio stream of
// typed rows (pagewire.go), the correlated stream as columnar pages —
// correlated streams in global completion order, class aggregates by
// Aggregate.Merge, loads by interaction-weighted means, counters by
// summation. Nothing on the shard link is JSON: the j* verbs are
// renderings of merged rows for operators.
//
// Failure semantics: a dead shard degrades the answer, it does not
// destroy it. Every merged result carries a FederationStatus naming the
// shards that answered and the shards that did not — a shard whose reply
// does not decode among them; textual replies to a partial query are
// suffixed with an explicit staleness marker instead of returning an
// error.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/lineproto"
	"sysprof/internal/simnet"
)

// DialFunc opens a connection to one shard's query endpoint. The default
// uses TCP; tests substitute net.Pipe wiring to in-process analyzers.
type DialFunc func(addr string) (net.Conn, error)

// FederationStatus reports which shards contributed to a merged result.
type FederationStatus struct {
	// Shards is the configured shard count (len of the endpoint list).
	Shards int `json:"shards"`
	// Dead lists the shard indexes that failed to answer this query.
	Dead []int `json:"dead,omitempty"`
	// Partial is true when at least one shard is missing from the merge —
	// the explicit staleness marker for degraded results.
	Partial bool `json:"partial"`
	// Errors holds one message per dead shard, aligned with Dead.
	Errors []string `json:"errors,omitempty"`
}

// marker renders the staleness suffix appended to textual replies.
func (st FederationStatus) marker() string {
	if !st.Partial {
		return ""
	}
	parts := make([]string, len(st.Dead))
	for i, idx := range st.Dead {
		parts[i] = fmt.Sprintf("%d (%s)", idx, st.Errors[i])
	}
	return fmt.Sprintf("\n! partial: %d/%d shards answered; dead: %s",
		st.Shards-len(st.Dead), st.Shards, strings.Join(parts, ", "))
}

// Frontend merges query results from a set of shard analyzer processes.
// It is safe for concurrent use.
type Frontend struct {
	dial      DialFunc
	timeout   time.Duration
	endpoints []string // fixed at construction: entry i serves shard i

	mu   sync.Mutex
	idle map[string][]*lineproto.Client // kept connections by endpoint, last used last
}

// maxIdlePerShard bounds the connections kept to one shard between
// queries: one for each caller likely to be asking at once (a query client
// or two, gpad's summary ticker). Each holds a 4 KB reader at either end.
const maxIdlePerShard = 4

// FrontendOption configures a Frontend.
type FrontendOption func(*Frontend)

// WithDialFunc substitutes the shard connection factory (tests).
func WithDialFunc(d DialFunc) FrontendOption {
	return func(f *Frontend) { f.dial = d }
}

// WithQueryTimeout bounds each per-shard query round trip.
func WithQueryTimeout(d time.Duration) FrontendOption {
	return func(f *Frontend) {
		if d > 0 {
			f.timeout = d
		}
	}
}

// NewFrontend builds a frontend over the given shard query endpoints;
// endpoint i serves flow-hash shard i of len(endpoints).
func NewFrontend(endpoints []string, opts ...FrontendOption) (*Frontend, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("gpa: federation frontend needs at least one shard endpoint")
	}
	f := &Frontend{
		endpoints: append([]string(nil), endpoints...),
		timeout:   5 * time.Second,
		idle:      make(map[string][]*lineproto.Client),
	}
	f.dial = func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, f.timeout)
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}

// Close closes the idle shard connections; a later query dials afresh.
func (f *Frontend) Close() {
	f.mu.Lock()
	idle := f.idle
	f.idle = make(map[string][]*lineproto.Client)
	f.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// takeIdle returns the idle connection to addr used last, or nil.
func (f *Frontend) takeIdle(addr string) (c *lineproto.Client) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.idle[addr]); n > 0 {
		c, f.idle[addr] = f.idle[addr][n-1], f.idle[addr][:n-1]
	}
	return c
}

// putIdle keeps c for addr's next query, or closes it when addr has its
// fill of idle connections.
func (f *Frontend) putIdle(addr string, c *lineproto.Client) {
	f.mu.Lock()
	keep := len(f.idle[addr]) < maxIdlePerShard
	if keep {
		f.idle[addr] = append(f.idle[addr], c)
	}
	f.mu.Unlock()
	if !keep {
		c.Close()
	}
}

// shardReply is one shard's answer to a fanned-out command, as the
// fan-out's decode made it.
type shardReply[V any] struct {
	index int
	value V
	err   error
}

// queryShard runs one command against one shard endpoint and returns the
// reply payload ("+payload ... ." framing, as served by GPA.Serve). The
// link is a kept connection: an idle one is taken or one is dialed, put
// back after any framed reply (an error reply included) and closed on a
// transport error. When a reused connection fails before a reply byte
// arrives, and not by the deadline, the shard has most likely restarted
// since: the command is asked once more on a fresh dial, so a restart
// costs a re-dial and not a partial answer. Nothing else is retried — a
// shard that does not answer costs one query timeout.
func (f *Frontend) queryShard(addr, cmd string) (string, error) {
	c := f.takeIdle(addr)
	for reused := c != nil; ; c, reused = nil, false {
		if c == nil {
			conn, err := f.dial(addr)
			if err != nil {
				return "", err
			}
			c = lineproto.NewClient(conn)
		}
		payload, err := c.Do(cmd, f.timeout)
		if err == nil || errors.As(err, new(lineproto.ReplyError)) {
			f.putIdle(addr, c)
			return payload, err
		}
		c.Close()
		if !reused || !errors.As(err, new(*lineproto.NoReplyError)) || errors.Is(err, os.ErrDeadlineExceeded) {
			return "", err
		}
	}
}

// fanOut runs cmd against every shard concurrently, decodes each reply
// in its shard's goroutine and collects them in shard order. A reply that
// does not decode makes its shard dead, as a transport error does: the
// answer degrades, it does not fail.
func fanOut[V any](f *Frontend, cmd string, decode func(payload string) (V, error)) ([]shardReply[V], FederationStatus) {
	replies := make([]shardReply[V], len(f.endpoints))
	var wg sync.WaitGroup
	for i, addr := range f.endpoints {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			r := &replies[i]
			r.index = i
			payload, err := f.queryShard(addr, cmd)
			if err == nil {
				if r.value, err = decode(payload); err != nil {
					err = fmt.Errorf("gpa: shard %d reply: %w", i, err)
				}
			}
			r.err = err
		}(i, addr)
	}
	wg.Wait()
	st := FederationStatus{Shards: len(f.endpoints)}
	for _, r := range replies {
		if r.err != nil {
			st.Dead = append(st.Dead, r.index)
			st.Errors = append(st.Errors, r.err.Error())
		}
	}
	st.Partial = len(st.Dead) > 0
	return replies, st
}

// asText is the decode of a reply that is read as the text it is.
func asText(payload string) (string, error) { return payload, nil }

// errAllShardsDead distinguishes "no data" from "no shards answered": a
// fully dead federation is an error, a partially dead one is a partial
// result.
var errAllShardsDead = errors.New("gpa: no federation shard answered")

// allDead is the error of a fan-out no shard answered, naming why each
// did not; nil while one did.
func (st FederationStatus) allDead() error {
	if len(st.Dead) < st.Shards {
		return nil
	}
	return fmt.Errorf("%w: %s", errAllShardsDead, strings.Join(st.Errors, "; "))
}

// fanOutRows fans cmd, a p* verb, out and gathers every live shard's rows
// of T, each reply held to between lo and hi rows.
func fanOutRows[T any](f *Frontend, cmd string, lo, hi int) ([]T, FederationStatus, error) {
	replies, st := fanOut(f, cmd, func(payload string) ([]T, error) { return decodeRows[T](payload, lo, hi) })
	if err := st.allDead(); err != nil {
		return nil, st, err
	}
	var rows []T
	for _, r := range replies {
		if rows == nil {
			rows = r.value // nil when the shard is dead
		} else {
			rows = append(rows, r.value...)
		}
	}
	return rows, st, nil
}

// StatsSnapshot merges analyzer counters across shards (field-wise sums).
func (f *Frontend) StatsSnapshot() (StatsReply, FederationStatus, error) {
	parts, st, err := fanOutRows[StatsReply](f, "pstats", 1, 1)
	if err != nil {
		return StatsReply{}, st, err
	}
	var sum StatsReply
	for _, p := range parts {
		sum.Ingested += p.Ingested
		sum.Correlated += p.Correlated
		sum.Uncorrelated += p.Uncorrelated
		sum.StalePruned += p.StalePruned
		sum.CorrelatedEvicted += p.CorrelatedEvicted
		sum.Dumps += p.Dumps
		sum.Pending += p.Pending
	}
	return sum, st, nil
}

// Nodes merges the reporting-node sets across shards (sorted union).
func (f *Frontend) Nodes() ([]simnet.NodeID, FederationStatus, error) {
	parts, st, err := fanOutRows[nodeRow](f, "pnodes", 0, maxNodeRows)
	if err != nil {
		return nil, st, err
	}
	out := make([]simnet.NodeID, len(parts))
	for i, p := range parts {
		out[i] = p.Node
	}
	slices.Sort(out)
	return slices.Compact(out), st, nil
}

// ServerLoad merges a node's load across shards: counts sum, means are
// re-weighted by each shard's interaction count.
func (f *Frontend) ServerLoad(node simnet.NodeID) (Load, FederationStatus, error) {
	parts, st, err := fanOutRows[Load](f, fmt.Sprintf("pload %d", node), 1, 1)
	if err != nil {
		return Load{}, st, err
	}
	l := Load{Node: node}
	var res, ker, buf time.Duration
	for _, p := range parts {
		w := time.Duration(p.Interactions)
		l.Interactions += p.Interactions
		res += p.MeanResidence * w
		ker += p.MeanKernel * w
		buf += p.MeanBufferWait * w
	}
	if l.Interactions > 0 {
		n := time.Duration(l.Interactions)
		l.MeanResidence = res / n
		l.MeanKernel = ker / n
		l.MeanBufferWait = buf / n
	}
	return l, st, nil
}

// ClassAggregatesAll merges every node's per-class aggregates across
// shards via Aggregate.Merge.
func (f *Frontend) ClassAggregatesAll() (map[simnet.NodeID]map[string]core.Aggregate, FederationStatus, error) {
	parts, st, err := fanOutRows[classRow](f, "pclasses", 0, maxPageRows)
	if err != nil {
		return nil, st, err
	}
	out := make(map[simnet.NodeID]map[string]core.Aggregate)
	for i := range parts {
		p := &parts[i]
		m := out[p.Node]
		if m == nil {
			m = make(map[string]core.Aggregate)
			out[p.Node] = m
		}
		mergeClass(m, p.Class, &p.Aggregate)
	}
	return out, st, nil
}

// ClassAggregates returns one node's per-class aggregates, merged across
// shards; like every class query it costs one pclasses round trip.
func (f *Frontend) ClassAggregates(node simnet.NodeID) (map[string]core.Aggregate, FederationStatus, error) {
	all, st, err := f.ClassAggregatesAll()
	return all[node], st, err
}

// Correlated returns the merged end-to-end interactions in global
// completion order.
func (f *Frontend) Correlated() ([]EndToEnd, FederationStatus, error) {
	return mergeTail(f, 0, func(dst *EndToEnd, _ uint64, p *E2EColumns, i int) { p.copyRow(dst, i) })
}

// Dump writes the merged correlated history, numbered as CorrelatedSeq
// numbers it, as the page stream GPA.Dump writes — the federation form of
// GPA.Dump for offline auditing.
func (f *Frontend) Dump(w io.Writer) (FederationStatus, error) {
	recs, st, err := f.CorrelatedSeq()
	if err != nil {
		return st, err
	}
	sc := &pageScratch{rows: recs}
	sc.order = sc.completionOrder(nil)
	return st, sc.writePages(w)
}

// broadcast sends an admin verb and its arguments to every shard and
// reports each live shard's one-line reply, then the partial marker.
func (f *Frontend) broadcast(verb string, args []string) (string, error) {
	replies, st := fanOut(f, strings.Join(append([]string{verb}, args...), " "), asText)
	if err := st.allDead(); err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		fmt.Fprintf(&sb, "shard %d: %s\n", r.index, strings.TrimRight(r.value, "\n"))
	}
	return strings.TrimRight(sb.String(), "\n") + st.marker(), nil
}

// Status probes every shard with a cheap query and reports liveness.
func (f *Frontend) Status() FederationStatus {
	_, st := fanOut(f, "stats", asText)
	return st
}

// frontendCommands is the query protocol of a federation: the shared
// queries merged from the shards, the admin verbs broadcast as they are —
// each shard checks the arguments it is sent — and the federation report.
var frontendCommands = &lineproto.Table[*Frontend]{Pkg: "gpa", Noun: "query", Unknown: "federation query", Rows: append(
	lineproto.Lift(queries, func(f *Frontend) (source, error) { return f, nil }),
	lineproto.Command[*Frontend]{Name: "retention", Help: "broadcast to every shard: retention <max-correlated>",
		Run: func(f *Frontend, a []string) (string, error) { return f.broadcast("retention", a) }},
	lineproto.Command[*Frontend]{Name: "clockbound", Help: "broadcast to every shard: clockbound <node> <duration>",
		Run: func(f *Frontend, a []string) (string, error) { return f.broadcast("clockbound", a) }},
	lineproto.Command[*Frontend]{Name: "federation", Help: "shard liveness and endpoints (JSON)",
		Run: func(f *Frontend, _ []string) (string, error) {
			return jsonReply(struct {
				FederationStatus
				Endpoints []string `json:"endpoints"`
			}{f.Status(), f.endpoints})
		}},
)}

// Execute runs one query command against the federation; "help" lists
// the commands.
func (f *Frontend) Execute(line string) (string, error) {
	return frontendCommands.Run(f, strings.Fields(line))
}

// encode renders the payload of a machine-readable reply: bare from an
// analyzer, whose status is empty, and in the {"federation": status,
// "data": ...} envelope from a frontend.
func (st FederationStatus) encode(data any) (string, error) {
	if st.Shards == 0 {
		return jsonReply(data)
	}
	return jsonReply(struct {
		Federation FederationStatus `json:"federation"`
		Data       any              `json:"data"`
	}{st, data})
}

// ServeConn answers federation queries on one connection with the same
// framing as the single-process query server.
func (f *Frontend) ServeConn(conn io.ReadWriter) { lineproto.ServeConn(conn, f.Execute) }

// Serve accepts federation query connections until the listener closes.
func (f *Frontend) Serve(l net.Listener) { lineproto.Serve(l, f.Execute) }

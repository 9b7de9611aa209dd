package gpa

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/lineproto"
	"sysprof/internal/simnet"
)

// This file implements the GPA's query interface: "Other nodes in the
// system can query the GPA to determine information about a particular
// interaction or about the system as a whole." Queries are served over a
// line protocol (one command per line, "+payload ... ." or "-error"
// replies) so schedulers and operators on other machines can consume GPA
// data without linking against it.

// AccountingRow summarizes one request class's total resource usage
// across the system — the paper's "utility billing, auditing, ...
// capacity planning" use case.
type AccountingRow struct {
	Class        string
	Interactions uint64
	// CPUTime is user + kernel time consumed serving the class.
	CPUTime time.Duration
	// BlockedTime is I/O wait attributable to the class.
	BlockedTime time.Duration
	// ReqBytes and RespBytes are network volumes.
	ReqBytes  uint64
	RespBytes uint64
	// MeanResidence is the average per-interaction residence.
	MeanResidence time.Duration
}

// Accounting merges per-node class aggregates (across all shards) into a
// per-class billing report, sorted by CPU time descending.
func (g *GPA) Accounting() []AccountingRow { return accountingRows(g.ClassAggregatesAll()) }

// accountingRows folds every node's class aggregates into one row per
// class.
func accountingRows(byNode map[simnet.NodeID]map[string]core.Aggregate) []AccountingRow {
	merged := make(map[string]*core.Aggregate)
	for _, classes := range byNode {
		for name, agg := range classes {
			m := merged[name]
			if m == nil {
				m = &core.Aggregate{Class: name}
				merged[name] = m
			}
			m.Merge(&agg)
		}
	}
	out := make([]AccountingRow, 0, len(merged))
	for name, agg := range merged {
		// Billing counts CPU actually consumed: user plus kernel time
		// minus socket-buffer residence (queueing occupies memory, not
		// cycles; the paper's "kernel-level time" includes it because it
		// is diagnosing latency, not metering usage).
		cpu := agg.TotalUser + agg.TotalKernel - agg.TotalBufWait
		if cpu < 0 {
			cpu = 0
		}
		out = append(out, AccountingRow{
			Class:         name,
			Interactions:  agg.Count,
			CPUTime:       cpu,
			BlockedTime:   agg.TotalBlocked,
			ReqBytes:      agg.ReqBytes,
			RespBytes:     agg.RespBytes,
			MeanResidence: agg.MeanResidence(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUTime != out[j].CPUTime {
			return out[i].CPUTime > out[j].CPUTime
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// RenderAccounting prints the billing report as a table.
func (g *GPA) RenderAccounting() string { return renderAccounting(g.Accounting()) }

func renderAccounting(rows []AccountingRow) string {
	var sb strings.Builder
	sb.WriteString("class            interactions   cpu-time     blocked      req-bytes   resp-bytes   mean-residence\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %12d   %-10v   %-10v   %9d   %10d   %v\n",
			r.Class, r.Interactions, r.CPUTime.Round(time.Microsecond),
			r.BlockedTime.Round(time.Microsecond), r.ReqBytes, r.RespBytes,
			r.MeanResidence.Round(time.Microsecond))
	}
	return sb.String()
}

// source is what a query is answered from: one analyzer's own state
// (local, whose status is always empty) or a federation's merged shard
// replies (*Frontend, whose status names the shards that did not
// answer).
type source interface {
	StatsSnapshot() (StatsReply, FederationStatus, error)
	Nodes() ([]simnet.NodeID, FederationStatus, error)
	ServerLoad(simnet.NodeID) (Load, FederationStatus, error)
	ClassAggregates(simnet.NodeID) (map[string]core.Aggregate, FederationStatus, error)
	ClassAggregatesAll() (map[simnet.NodeID]map[string]core.Aggregate, FederationStatus, error)
	// correlatedTail returns the last n correlated interactions in
	// completion order; 0 means the whole history.
	correlatedTail(n int) ([]SeqEndToEnd, FederationStatus, error)
}

// local answers queries from one analyzer: GPA's accessors in source's
// shape.
type local struct{ g *GPA }

func (l local) StatsSnapshot() (StatsReply, FederationStatus, error) {
	return StatsReply{Stats: l.g.StatsSnapshot(), Pending: l.g.PendingCount()}, FederationStatus{}, nil
}

func (l local) Nodes() ([]simnet.NodeID, FederationStatus, error) {
	return l.g.Nodes(), FederationStatus{}, nil
}

func (l local) ServerLoad(node simnet.NodeID) (Load, FederationStatus, error) {
	return l.g.ServerLoad(node), FederationStatus{}, nil
}

func (l local) ClassAggregates(node simnet.NodeID) (map[string]core.Aggregate, FederationStatus, error) {
	return l.g.ClassAggregates(node), FederationStatus{}, nil
}

func (l local) ClassAggregatesAll() (map[simnet.NodeID]map[string]core.Aggregate, FederationStatus, error) {
	return l.g.ClassAggregatesAll(), FederationStatus{}, nil
}

func (l local) correlatedTail(n int) ([]SeqEndToEnd, FederationStatus, error) {
	return l.g.correlatedSeqTail(n), FederationStatus{}, nil
}

// read is the first half of a query: what the command's arguments ask
// of the source.
type read[V any] func(src source, args []string) (V, FederationStatus, error)

// noArgs reads one of the source's accessors, whatever the arguments.
func noArgs[V any](get func(source) (V, FederationStatus, error)) read[V] {
	return func(src source, _ []string) (V, FederationStatus, error) { return get(src) }
}

// byNode reads one of the source's per-node accessors at the node the
// first argument names.
func byNode[V any](get func(source, simnet.NodeID) (V, FederationStatus, error)) read[V] {
	return func(src source, a []string) (v V, st FederationStatus, err error) {
		id, err := parseNode(a[0])
		if err != nil {
			return v, st, err
		}
		return get(src, id)
	}
}

// answer makes a row's handler from a read and a rendering of what was
// read: text, closed by the partial-result marker, or — with no
// rendering — the one JSON document of a machine-readable reply.
func answer[V any](get read[V], text func(V) string) func(source, []string) (string, error) {
	return func(src source, args []string) (string, error) {
		v, st, err := get(src, args)
		switch {
		case err != nil:
			return "", err
		case text == nil:
			return st.encode(v)
		}
		return strings.TrimRight(text(v), "\n") + st.marker(), nil
	}
}

// queries are the verbs an analyzer and a frontend both answer, the
// frontend by merging its shards' replies: when a shard is dead it closes
// a textual reply with the staleness marker, and it always wraps a JSON
// reply in a {"federation": status, "data": ...} envelope so machine
// consumers see the marker too.
var queries = []lineproto.Command[source]{
	{Name: "stats", Help: "analyzer counters", Run: answer(noArgs(source.StatsSnapshot), textStats)},
	{Name: "nodes", Help: "reporting nodes", Run: answer(noArgs(source.Nodes), textNodes)},
	{Name: "load", Args: "<node>", Help: "sliding-window load of a node", Run: answer(byNode(source.ServerLoad), textLoad)},
	{Name: "classes", Args: "<node>", Help: "per-class aggregates at a node",
		Run: answer(byNode(source.ClassAggregates), textClasses)},
	{Name: "accounting", Help: "system-wide per-class billing report",
		Run: answer(noArgs(source.ClassAggregatesAll), textAccounting)},
	{Name: "flow", Args: "<node:port> <node:port>", Help: "correlated interactions on one flow, either direction", Run: flowQuery},
	{Name: "recent", Args: "<n>", Help: "last n correlated end-to-end interactions", Run: answer(readTail, textRecent)},
	{Name: "jstats", Help: "JSON: counters plus pending count", Run: answer(noArgs(source.StatsSnapshot), nil)},
	{Name: "jnodes", Help: "JSON: reporting node ids", Run: answer(noArgs(source.Nodes), nil)},
	{Name: "jload", Args: "<node>", Help: "JSON: load of a node", Run: answer(byNode(source.ServerLoad), nil)},
	{Name: "jclasses", Help: "JSON: per-node per-class aggregates", Run: answer(noArgs(source.ClassAggregatesAll), nil)},
	{Name: "jcorrelated", Args: "[n]", Help: "JSON: correlated interactions with sequence tags (the last n in completion order)",
		Run: answer(readTail, nil)},
}

// analyzerCommands is the query protocol of one analyzer: it applies the
// admin verbs and serves its history page.
var analyzerCommands = &lineproto.Table[*GPA]{Pkg: "gpa", Noun: "query", Rows: append(
	lineproto.Lift(queries, func(g *GPA) (source, error) { return local{g}, nil }),
	lineproto.Command[*GPA]{Name: "retention", Args: "<max-correlated>", Help: "cap correlated history at n (0 = unbounded)",
		Run: func(g *GPA, a []string) (string, error) {
			n, err := strconv.ParseInt(a[0], 10, 32)
			if err != nil || n < 0 {
				return "", fmt.Errorf("gpa: bad retention %q (want integer >= 0)", a[0])
			}
			if err := g.SetMaxCorrelated(int(n)); err != nil {
				return "", err
			}
			return fmt.Sprintf("retention=%d", n), nil
		}},
	lineproto.Command[*GPA]{Name: "clockbound", Args: "<node> <duration>", Help: "set a node's clock-error bound (0 clears)",
		Run: func(g *GPA, a []string) (string, error) {
			id, err := parseNode(a[0])
			if err != nil {
				return "", err
			}
			d, err := time.ParseDuration(a[1])
			if err != nil || d < 0 {
				return "", fmt.Errorf("gpa: bad clock bound %q (want non-negative duration)", a[1])
			}
			g.SetClockErrorBound(id, d)
			return fmt.Sprintf("node=%d clockbound=%v", id, d), nil
		}},
	lineproto.Command[*GPA]{Name: "pcorrelated", Args: "[n]",
		Help: "the jcorrelated stream as one columnar page of base64-framed pbio 0x05 frames (pagewire.go): what a frontend fetches",
		Run: func(g *GPA, a []string) (string, error) {
			n, err := tailCount(a)
			if err != nil {
				return "", err
			}
			return g.correlatedPage(n, pageFrameRows)
		}},
)}

// Execute runs one query command against this analyzer; "help" lists
// the commands.
func (g *GPA) Execute(line string) (string, error) {
	return analyzerCommands.Run(g, strings.Fields(line))
}

func textStats(sum StatsReply) string {
	return fmt.Sprintf("ingested=%d correlated=%d uncorrelated=%d pending=%d",
		sum.Ingested, sum.Correlated, sum.Uncorrelated, sum.Pending)
}

func textNodes(nodes []simnet.NodeID) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = strconv.Itoa(int(n))
	}
	return strings.Join(parts, " ")
}

func textLoad(l Load) string {
	return fmt.Sprintf("node=%d interactions=%d mean_residence=%v mean_kernel=%v mean_bufwait=%v",
		l.Node, l.Interactions, l.MeanResidence, l.MeanKernel, l.MeanBufferWait)
}

func textClasses(aggs map[string]core.Aggregate) string {
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		a := aggs[n]
		fmt.Fprintf(&sb, "%s count=%d mean_user=%v mean_kernel=%v mean_residence=%v\n",
			n, a.Count, a.MeanUser(), a.MeanKernel(), a.MeanResidence())
	}
	return sb.String()
}

func textAccounting(all map[simnet.NodeID]map[string]core.Aggregate) string {
	return renderAccounting(accountingRows(all))
}

// flowQuery answers with "information about a particular interaction":
// the correlated interactions on one flow, either direction.
func flowQuery(src source, a []string) (string, error) {
	from, err := parseAddr(a[0])
	if err != nil {
		return "", err
	}
	to, err := parseAddr(a[1])
	if err != nil {
		return "", err
	}
	want := simnet.FlowKey{Src: from, Dst: to}.Canonical()
	recs, st, err := src.correlatedTail(0)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i := range recs {
		e := &recs[i].EndToEnd
		if e.Flow.Canonical() != want {
			continue
		}
		fmt.Fprintf(&sb, "start=%v client=%v server=%v network=%v user=%v kernel=%v bufwait=%v\n",
			e.Server.Start, e.Client.Residence(), e.Server.Residence(),
			e.NetworkDelay(), e.Server.UserTime, e.Server.KernelTime(),
			e.Server.BufferWait)
	}
	if sb.Len() == 0 {
		return "no correlated interactions on " + want.String() + st.marker(), nil
	}
	return strings.TrimRight(sb.String(), "\n") + st.marker(), nil
}

func readTail(src source, a []string) ([]SeqEndToEnd, FederationStatus, error) {
	n, err := tailCount(a)
	if err != nil {
		return nil, FederationStatus{}, err
	}
	return src.correlatedTail(n)
}

func textRecent(recs []SeqEndToEnd) string {
	var sb strings.Builder
	for i := range recs {
		writeRecent(&sb, &recs[i].EndToEnd)
	}
	return sb.String()
}

// tailCount parses the trailing count the correlated query family
// shares; without one it is 0, the whole history.
func tailCount(a []string) (int, error) {
	if len(a) == 0 {
		return 0, nil
	}
	return parseCount(a[0])
}

// writeRecent renders one line of a "recent" reply: the allocations are
// those of the three durations' String() calls; the flow is appended from
// a stack buffer, and nothing is boxed for a formatter.
func writeRecent(sb *strings.Builder, e *EndToEnd) {
	var flow [32]byte
	sb.Write(e.Flow.Append(flow[:0]))
	for _, s := range [...]string{" client=", e.Client.Residence().String(),
		" server=", e.Server.Residence().String(), " network=", e.NetworkDelay().String(),
		" class=", e.Server.Class, "\n"} {
		sb.WriteString(s)
	}
}

// StatsReply is the jstats payload: analyzer counters plus the live
// pending count.
type StatsReply struct {
	Stats
	Pending int `json:"pending"`
}

// jsonReply marshals one query result as a single-document JSON reply.
func jsonReply(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("gpa: encode reply: %w", err)
	}
	return string(b), nil
}

// parseNode parses a node id, rejecting values outside NodeID's 16-bit
// range instead of silently truncating them to a different node.
func parseNode(s string) (simnet.NodeID, error) {
	id, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("gpa: bad node id %q (want 0..65535)", s)
	}
	return simnet.NodeID(id), nil
}

// parseCount parses a positive result-count argument with a sane upper
// bound so a typo cannot request a multi-gigabyte reply.
func parseCount(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil || n < 1 || n > 1<<24 {
		return 0, fmt.Errorf("gpa: bad count %q (want 1..%d)", s, 1<<24)
	}
	return int(n), nil
}

// parseAddr parses "node:port" (e.g. "2:80"). Both halves are 16-bit;
// out-of-range or negative values are rejected rather than truncated into
// a valid-looking but wrong address.
func parseAddr(s string) (simnet.Addr, error) {
	nodeStr, portStr, ok := strings.Cut(strings.TrimPrefix(s, "n"), ":")
	if !ok {
		return simnet.Addr{}, fmt.Errorf("gpa: bad address %q (want node:port)", s)
	}
	node, err := strconv.ParseUint(nodeStr, 10, 16)
	if err != nil {
		return simnet.Addr{}, fmt.Errorf("gpa: bad node in %q (want 0..65535)", s)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return simnet.Addr{}, fmt.Errorf("gpa: bad port in %q (want 0..65535)", s)
	}
	return simnet.Addr{Node: simnet.NodeID(node), Port: uint16(port)}, nil
}

// ServeConn answers queries on one connection in lineproto's framing.
func (g *GPA) ServeConn(conn io.ReadWriter) { lineproto.ServeConn(conn, g.Execute) }

// Serve accepts query connections until the listener closes.
func (g *GPA) Serve(l net.Listener) { lineproto.Serve(l, g.Execute) }

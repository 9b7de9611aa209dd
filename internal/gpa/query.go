package gpa

import (
	"encoding/json"
	"errors"
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
// answer). Everything in which the two reply differently is behind the
// last two methods.
type source interface {
	StatsSnapshot() (StatsReply, FederationStatus, error)
	Nodes() ([]simnet.NodeID, FederationStatus, error)
	ServerLoad(simnet.NodeID) (Load, FederationStatus, error)
	ClassAggregatesAll() (map[simnet.NodeID]map[string]core.Aggregate, FederationStatus, error)
	// correlatedTail returns the last n correlated interactions in
	// completion order; 0 means the whole history.
	correlatedTail(n int) ([]SeqEndToEnd, FederationStatus, error)
	// encode renders the payload of a machine-readable reply: bare from
	// an analyzer, in the {"federation": status, "data": ...} envelope
	// from a frontend.
	encode(st FederationStatus, data any) (string, error)
	// executeOwn runs the verbs only this kind of source answers, and
	// refuses the rest.
	executeOwn(fields []string) (string, error)
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

func (l local) ClassAggregatesAll() (map[simnet.NodeID]map[string]core.Aggregate, FederationStatus, error) {
	return l.g.ClassAggregatesAll(), FederationStatus{}, nil
}

func (l local) correlatedTail(n int) ([]SeqEndToEnd, FederationStatus, error) {
	return l.g.correlatedSeqTail(n), FederationStatus{}, nil
}

func (l local) encode(_ FederationStatus, data any) (string, error) { return jsonReply(data) }

func (l local) executeOwn(fields []string) (string, error) {
	switch fields[0] {
	case "pcorrelated":
		n, err := tailCount(fields)
		if err != nil {
			return "", err
		}
		return l.g.correlatedPage(n, pageFrameRows)
	case "retention":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: retention <max-correlated>")
		}
		n, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || n < 0 {
			return "", fmt.Errorf("gpa: bad retention %q (want integer >= 0)", fields[1])
		}
		if err := l.g.SetMaxCorrelated(int(n)); err != nil {
			return "", err
		}
		return fmt.Sprintf("retention=%d", n), nil
	case "clockbound":
		if len(fields) != 3 {
			return "", errors.New("gpa: usage: clockbound <node> <duration>")
		}
		id, err := parseNode(fields[1])
		if err != nil {
			return "", err
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil || d < 0 {
			return "", fmt.Errorf("gpa: bad clock bound %q (want non-negative duration)", fields[2])
		}
		l.g.SetClockErrorBound(id, d)
		return fmt.Sprintf("node=%d clockbound=%v", id, d), nil
	}
	return "", fmt.Errorf("gpa: unknown query %q", fields[0])
}

// Execute runs one query command against this analyzer; see execute for
// the command set.
func (g *GPA) Execute(line string) (string, error) { return execute(local{g}, line) }

// execute runs one query command against an analyzer or a federation.
// Commands:
//
//	stats                     analyzer counters
//	nodes                     reporting nodes
//	load <node>               sliding-window load of a node
//	classes <node>            per-class aggregates at a node
//	accounting                system-wide per-class billing report
//	flow <n:p> <n:p>          correlated interactions on one flow
//	recent <n>                last n correlated end-to-end interactions
//
// Machine-readable commands, one JSON document per reply:
//
//	jstats                    Stats plus pending count
//	jnodes                    reporting node ids, as an array
//	jload <node>              Load of a node
//	jclasses                  per-node per-class aggregates
//	jcorrelated [n]           correlated interactions with sequence tags
//	                          (the last n in completion order)
//
// A frontend merges all of these from its shards; when one is dead it
// suffixes a textual reply with the partial-result staleness marker, and
// it always wraps a JSON reply in a {"federation": status, "data": ...}
// envelope so machine consumers see the marker too. The rest is
// executeOwn's: an analyzer applies the admin commands and serves its
// history page, a frontend broadcasts the admin commands to every shard
// and reports on its shards.
//
//	retention <n>             cap correlated history at n (0 = unbounded)
//	clockbound <node> <dur>   set a node's clock-error bound (0 clears)
//	pcorrelated [n]           analyzer only: the jcorrelated stream as one
//	                          columnar page of base64-framed pbio 0x05
//	                          frames (pagewire.go), what a frontend fetches
//	federation                frontend only: shard liveness and endpoints
func execute(src source, line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", errors.New("gpa: empty query")
	}
	verb := fields[0]
	switch verb {
	case "jstats", "stats":
		sum, st, err := src.StatsSnapshot()
		if err != nil {
			return "", err
		}
		if verb == "jstats" {
			return src.encode(st, sum)
		}
		return fmt.Sprintf("ingested=%d correlated=%d uncorrelated=%d pending=%d",
			sum.Ingested, sum.Correlated, sum.Uncorrelated, sum.Pending) + st.marker(), nil
	case "jnodes", "nodes":
		nodes, st, err := src.Nodes()
		if err != nil {
			return "", err
		}
		if verb == "jnodes" {
			return src.encode(st, nodes)
		}
		parts := make([]string, len(nodes))
		for i, n := range nodes {
			parts[i] = strconv.Itoa(int(n))
		}
		return strings.Join(parts, " ") + st.marker(), nil
	case "jload", "load":
		id, err := nodeArg(fields)
		if err != nil {
			return "", err
		}
		l, st, err := src.ServerLoad(id)
		if err != nil {
			return "", err
		}
		if verb == "jload" {
			return src.encode(st, l)
		}
		return fmt.Sprintf("node=%d interactions=%d mean_residence=%v mean_kernel=%v mean_bufwait=%v",
			l.Node, l.Interactions, l.MeanResidence, l.MeanKernel, l.MeanBufferWait) + st.marker(), nil
	case "classes":
		id, err := nodeArg(fields)
		if err != nil {
			return "", err
		}
		all, st, err := src.ClassAggregatesAll()
		if err != nil {
			return "", err
		}
		aggs := all[id]
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
		return strings.TrimRight(sb.String(), "\n") + st.marker(), nil
	case "accounting":
		all, st, err := src.ClassAggregatesAll()
		if err != nil {
			return "", err
		}
		return strings.TrimRight(renderAccounting(accountingRows(all)), "\n") + st.marker(), nil
	case "flow":
		// "information about a particular interaction": all correlated
		// interactions on one flow, either direction.
		if len(fields) != 3 {
			return "", errors.New("gpa: usage: flow <node:port> <node:port>")
		}
		from, err := parseAddr(fields[1])
		if err != nil {
			return "", err
		}
		to, err := parseAddr(fields[2])
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
	case "recent":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: recent <n>")
		}
		n, err := parseCount(fields[1])
		if err != nil {
			return "", err
		}
		recs, st, err := src.correlatedTail(n)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for i := range recs {
			writeRecent(&sb, &recs[i].EndToEnd)
		}
		return strings.TrimRight(sb.String(), "\n") + st.marker(), nil
	case "jclasses":
		all, st, err := src.ClassAggregatesAll()
		if err != nil {
			return "", err
		}
		return src.encode(st, all)
	case "jcorrelated":
		n, err := tailCount(fields)
		if err != nil {
			return "", err
		}
		recs, st, err := src.correlatedTail(n)
		if err != nil {
			return "", err
		}
		return src.encode(st, recs)
	}
	return src.executeOwn(fields)
}

// nodeArg parses the one node-id argument load, classes and jload take.
func nodeArg(fields []string) (simnet.NodeID, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("gpa: usage: %s <node>", fields[0])
	}
	return parseNode(fields[1])
}

// tailCount parses the optional trailing-count argument the correlated
// query family shares; 0 means the whole history.
func tailCount(fields []string) (int, error) {
	switch len(fields) {
	case 1:
		return 0, nil
	case 2:
		return parseCount(fields[1])
	}
	return 0, fmt.Errorf("gpa: usage: %s [n]", fields[0])
}

// writeRecent renders one line of a "recent" reply: the allocations are
// those of the String() calls, with none for a formatter to box them.
func writeRecent(sb *strings.Builder, e *EndToEnd) {
	for _, s := range [...]string{e.Flow.String(), " client=", e.Client.Residence().String(),
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

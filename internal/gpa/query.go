package gpa

import (
	"bufio"
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
func (g *GPA) Accounting() []AccountingRow {
	merged := make(map[string]*core.Aggregate)
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for _, classes := range s.byClass {
			for name, agg := range classes {
				m := merged[name]
				if m == nil {
					m = &core.Aggregate{Class: name}
					merged[name] = m
				}
				m.Merge(agg)
			}
		}
		s.mu.Unlock()
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
func (g *GPA) RenderAccounting() string {
	rows := g.Accounting()
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

// Execute runs one query command. Commands:
//
//	stats                     analyzer counters
//	nodes                     reporting nodes
//	load <node>               sliding-window load of a node
//	classes <node>            per-class aggregates at a node
//	accounting                system-wide per-class billing report
//	flow <n:p> <n:p>          correlated interactions on one flow
//	recent <n>                last n correlated end-to-end interactions
//
// Machine-readable commands serve the federation frontend, which fans
// queries out to shard gpad processes and merges the decoded results —
// one JSON document per reply, except the bulk transfer:
//
//	jstats                    Stats plus pending count, as JSON
//	jnodes                    reporting node ids, as a JSON array
//	jload <node>              Load of a node, as JSON
//	jclasses                  per-node per-class aggregates, as JSON
//	jcorrelated [n]           correlated interactions with sequence tags
//	                          (last n by sequence), as JSON rows
//	pcorrelated [n]           the same stream (last n by completion) as one
//	                          columnar page: base64-framed pbio 0x05
//	                          frames, see pagewire.go
//
// Admin commands (federation retention / clock-quality knobs):
//
//	retention <n>             cap correlated history at n (0 = unbounded)
//	clockbound <node> <dur>   set a node's clock-error bound (0 clears)
func (g *GPA) Execute(line string) (string, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return "", errors.New("gpa: empty query")
	}
	switch fields[0] {
	case "stats":
		st := g.StatsSnapshot()
		return fmt.Sprintf("ingested=%d correlated=%d uncorrelated=%d pending=%d",
			st.Ingested, st.Correlated, st.Uncorrelated, g.PendingCount()), nil
	case "nodes":
		var parts []string
		for _, n := range g.Nodes() {
			parts = append(parts, strconv.Itoa(int(n)))
		}
		return strings.Join(parts, " "), nil
	case "load":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: load <node>")
		}
		id, err := parseNode(fields[1])
		if err != nil {
			return "", err
		}
		l := g.ServerLoad(id)
		return fmt.Sprintf("node=%d interactions=%d mean_residence=%v mean_kernel=%v mean_bufwait=%v",
			l.Node, l.Interactions, l.MeanResidence, l.MeanKernel, l.MeanBufferWait), nil
	case "classes":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: classes <node>")
		}
		id, err := parseNode(fields[1])
		if err != nil {
			return "", err
		}
		aggs := g.ClassAggregates(id)
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
		return strings.TrimRight(sb.String(), "\n"), nil
	case "accounting":
		return strings.TrimRight(g.RenderAccounting(), "\n"), nil
	case "flow":
		// "information about a particular interaction": all correlated
		// interactions on one flow, either direction.
		if len(fields) != 3 {
			return "", errors.New("gpa: usage: flow <node:port> <node:port>")
		}
		src, err := parseAddr(fields[1])
		if err != nil {
			return "", err
		}
		dst, err := parseAddr(fields[2])
		if err != nil {
			return "", err
		}
		want := simnet.FlowKey{Src: src, Dst: dst}.Canonical()
		var sb strings.Builder
		n := 0
		for _, e := range g.Correlated() {
			if e.Flow.Canonical() != want {
				continue
			}
			n++
			fmt.Fprintf(&sb, "start=%v client=%v server=%v network=%v user=%v kernel=%v bufwait=%v\n",
				e.Server.Start, e.Client.Residence(), e.Server.Residence(),
				e.NetworkDelay(), e.Server.UserTime, e.Server.KernelTime(),
				e.Server.BufferWait)
		}
		if n == 0 {
			return "no correlated interactions on " + want.String(), nil
		}
		return strings.TrimRight(sb.String(), "\n"), nil
	case "recent":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: recent <n>")
		}
		n, err := parseCount(fields[1])
		if err != nil {
			return "", err
		}
		recs := g.correlatedSnapshot()
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		var sb strings.Builder
		for i := range recs {
			writeRecent(&sb, &recs[i].e2e)
		}
		return strings.TrimRight(sb.String(), "\n"), nil
	case "jstats":
		st := g.StatsSnapshot()
		return jsonReply(StatsReply{Stats: st, Pending: g.PendingCount()})
	case "jnodes":
		return jsonReply(g.Nodes())
	case "jload":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: jload <node>")
		}
		id, err := parseNode(fields[1])
		if err != nil {
			return "", err
		}
		return jsonReply(g.ServerLoad(id))
	case "jclasses":
		return jsonReply(g.ClassAggregatesAll())
	case "jcorrelated":
		n, err := tailCount(fields)
		if err != nil {
			return "", err
		}
		recs := g.CorrelatedSeq()
		if n > 0 && len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		return jsonReply(recs)
	case "pcorrelated":
		n, err := tailCount(fields)
		if err != nil {
			return "", err
		}
		return g.correlatedPage(n, pageFrameRows)
	case "retention":
		if len(fields) != 2 {
			return "", errors.New("gpa: usage: retention <max-correlated>")
		}
		n, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || n < 0 {
			return "", fmt.Errorf("gpa: bad retention %q (want integer >= 0)", fields[1])
		}
		if err := g.SetMaxCorrelated(int(n)); err != nil {
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
		g.SetClockErrorBound(id, d)
		return fmt.Sprintf("node=%d clockbound=%v", id, d), nil
	}
	return "", fmt.Errorf("gpa: unknown query %q", fields[0])
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

// writeRecent renders one line of a "recent" reply.
func writeRecent(sb *strings.Builder, e *EndToEnd) {
	fmt.Fprintf(sb, "%s client=%v server=%v network=%v class=%s\n",
		e.Flow, e.Client.Residence(), e.Server.Residence(),
		e.NetworkDelay(), e.Server.Class)
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

// newLineScanner builds a line scanner sized for query replies: a
// correlated payload is one line covering a shard's whole retained
// history, so the token cap is generous (64 MiB) rather than bufio's
// 64 KiB default.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	return sc
}

// serveLineProtocol answers queries on one connection using the same
// framing as the controller protocol: "+payload" terminated by a lone "."
// on success, "-error" on failure. Shared by the single-process GPA query
// server and the federation frontend.
func serveLineProtocol(conn io.ReadWriter, exec func(string) (string, error)) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		reply, err := exec(sc.Text())
		if err != nil {
			fmt.Fprintf(w, "-%v\n", err)
		} else {
			fmt.Fprintf(w, "+%s\n.\n", strings.TrimRight(reply, "\n"))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// serveListener accepts query connections until the listener closes.
func serveListener(l net.Listener, exec func(string) (string, error)) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			serveLineProtocol(conn, exec)
		}()
	}
}

// ServeConn answers queries on one connection ("+payload ... ." or
// "-error" framing, as in the controller protocol).
func (g *GPA) ServeConn(conn io.ReadWriter) { serveLineProtocol(conn, g.Execute) }

// Serve accepts query connections until the listener closes.
func (g *GPA) Serve(l net.Listener) { serveListener(l, g.Execute) }

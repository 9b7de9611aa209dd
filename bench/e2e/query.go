package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/gpa"
	"sysprof/internal/simnet"
)

const (
	queryShards = 2
	// queryCap is each shard's MaxCorrelated. It sets the cost of a
	// rotation, which the two k-way merges over the shards' history
	// dominate; sized so a window holds well over the 100 rotations p90
	// needs (at 512 a rotation takes 40 ms, at 256 it takes 20 ms).
	queryCap        = 256
	queryLoadWindow = 1500 * time.Millisecond // full within the warm-up
	queryFlows      = 1024

	// The background writer: 2000 fresh pairs/s in 256-row batches.
	writerPairsPerTick = 128
	writerTick         = 64 * time.Millisecond
	writerBatchRows    = 256
)

// queryMix is the read side with writes beside it: two GPA shards at their
// history caps, each serving the query protocol on loopback TCP, one
// federation frontend over both, one closed-loop client running a fixed
// rotation of eight calls, and a paced writer ingesting fresh pairs so that
// reads contend with ingest and eviction.
type queryMix struct {
	clk *freezableClock
	tr  *tracer

	gpas  [queryShards]*gpa.GPA
	lis   [queryShards]*countingListener
	fe    *gpa.Frontend
	dialC connCounters

	// Writer state, touched only by the writer goroutine (and by preload
	// before it exists).
	rng     *rand.Rand
	flows   []simnet.FlowKey
	classes []string // per flow, as the LPA's port classifier names them
	flow    int
	nextID  [2]uint64
	acc     [queryShards]*core.RecordColumns
	written uint64 // records handed to IngestColumns

	rotations uint64
	failed    uint64
	checks    []string // first failure of each kind
	lastStats [2]uint64
	rec       recorder
	stepLat   [][]float64 // per rotation step, ms, all windows
	replyB0   uint64
}

func newQueryMix(seed int64, warmup time.Duration) (workload, error) {
	q := &queryMix{
		clk:     newFreezableClock(),
		rng:     rand.New(rand.NewSource(seed)),
		flows:   make([]simnet.FlowKey, queryFlows),
		classes: make([]string, queryFlows),
		stepLat: make([][]float64, len(querySteps)),
	}
	for i := range q.flows {
		q.flows[i] = simnet.FlowKey{
			Src: simnet.Addr{Node: clientNode, Port: uint16(10000 + i)},
			Dst: simnet.Addr{Node: serverNode, Port: serverPorts[q.rng.Intn(len(serverPorts))]},
		}
		q.classes[i] = fmt.Sprintf("port:%d", q.flows[i].Dst.Port)
	}
	var endpoints []string
	for i := range q.gpas {
		q.gpas[i] = gpa.New(gpa.Config{MaxCorrelated: queryCap, LoadWindow: queryLoadWindow}, q.clk.now)
		q.acc[i] = core.NewRecordColumns(writerBatchRows)
		lis, err := listenLoopback()
		if err != nil {
			q.close()
			return nil, err
		}
		q.lis[i] = lis
		go q.gpas[i].Serve(lis) // returns when close() closes the listener
		endpoints = append(endpoints, lis.Addr().String())
	}
	fe, err := gpa.NewFrontend(endpoints, gpa.WithDialFunc(func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, c: &q.dialC}, nil
	}))
	if err != nil {
		q.close()
		return nil, err
	}
	q.fe = fe

	// Preload both shards past their caps so eviction runs from the start.
	for i := 0; i < 4*queryCap*queryShards; i++ {
		q.writePair()
	}
	q.flushWriter()
	if _, err := q.window(warmup); err != nil {
		q.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	q.rotations, q.failed, q.checks = 0, 0, nil
	for i := range q.stepLat {
		q.stepLat[i] = q.stepLat[i][:0]
	}
	q.replyB0 = q.dialC.readBytes.Load()
	return q, nil
}

// writePair appends one interaction's client and server records to the
// batch of the shard that owns its flow, ingesting the batch when full.
func (q *queryMix) writePair() {
	idx := q.flow
	flow := q.flows[idx]
	if q.flow++; q.flow == len(q.flows) {
		q.flow = 0
	}
	now := q.clk.now()
	service := time.Duration(200+q.rng.Intn(2000)) * time.Microsecond
	wire := time.Duration(50+q.rng.Intn(200)) * time.Microsecond
	shard := int(flow.ShardHash() % queryShards)
	acc := q.acc[shard]
	for side, node := range [2]simnet.NodeID{clientNode, serverNode} {
		q.nextID[side]++
		rec := core.Record{
			ID: q.nextID[side], Node: node, Flow: flow,
			Class: q.classes[idx],
			Start: now - service - wire, End: now - wire,
			ReqPackets: 1, ReqBytes: 200 + q.rng.Intn(1000),
			RespPackets: 2, RespBytes: 1000 + q.rng.Intn(4000),
			ProtoTime: 20 * time.Microsecond, TxTime: 15 * time.Microsecond,
			BufferWait: time.Duration(q.rng.Intn(300)) * time.Microsecond,
			UserTime:   service / 2, SyscallTime: service / 4,
			ServerPID: int32(100 + idx%8), ServerProc: "httpd",
		}
		if node == clientNode {
			rec.Start, rec.End = now-service-2*wire, now
			rec.ServerPID, rec.ServerProc = 0, ""
		}
		acc.Append(&rec)
	}
	if acc.Len() >= writerBatchRows {
		q.ingest(shard)
	}
}

func (q *queryMix) ingest(shard int) {
	acc := q.acc[shard]
	if acc.Len() == 0 {
		return
	}
	start := mono()
	q.gpas[shard].IngestColumns(acc)
	if q.tr.on() {
		q.tr.ingested(acc.Len(), start, mono())
	}
	q.written += uint64(acc.Len())
	acc.Reset()
}

func (q *queryMix) flushWriter() {
	for i := range q.acc {
		q.ingest(i)
	}
}

// runWriter is the paced background writer of one window.
func (q *queryMix) runWriter(start int64, stop <-chan struct{}) {
	for k := 0; ; k++ {
		due := start + int64(k)*int64(writerTick)
		if wait := due - mono(); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(wait)):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		for i := 0; i < writerPairsPerTick; i++ {
			q.writePair()
		}
	}
}

func (q *queryMix) window(d time.Duration) (winStats, error) {
	q.clk.open()
	q.rec.begin()
	start := mono()
	deadline := start + int64(d)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.runWriter(start, stop)
	}()
	var err error
	for mono() < deadline && err == nil {
		err = q.rotation()
	}
	close(stop)
	wg.Wait()
	q.rec.end()
	open := time.Duration(mono() - start)
	q.clk.freeze()
	if err != nil {
		return winStats{}, err
	}
	return winStats{marks: q.rec.marks, lat: q.rec.lat, open: open}, nil
}

func (q *queryMix) fault(kind, format string, args ...any) {
	for _, c := range q.checks {
		if strings.HasPrefix(c, kind+":") {
			return
		}
	}
	q.checks = append(q.checks, kind+": "+fmt.Sprintf(format, args...))
}

// rotation runs the eight calls once, checks every reply, and records the
// rotation as one op. It returns an error only when the frontend itself
// fails; a wrong reply is a failed op.
func (q *queryMix) rotation() error {
	ok := true
	bad := func(kind, format string, args ...any) {
		ok = false
		q.fault(kind, format, args...)
	}
	var rotSpan uint64
	if q.tr.on() {
		rotSpan = q.tr.nextID.Add(1)
	}
	rotStart := mono()
	t := rotStart
	step := func(i int) {
		now := mono()
		q.stepLat[i] = append(q.stepLat[i], float64(now-t)/1e6)
		if rotSpan != 0 {
			q.tr.add(span{Name: "gpa.query." + querySteps[i], Parent: rotSpan, Start: t, End: now})
		}
		t = now
	}
	text := func(cmd string) (string, error) {
		reply, err := q.fe.Execute(cmd)
		if err != nil {
			return "", fmt.Errorf("query %q: %w", cmd, err)
		}
		if strings.Contains(reply, "! partial") {
			bad("partial", "%q answered partially: %s", cmd, reply)
		}
		return reply, nil
	}

	reply, err := text("stats")
	if err != nil {
		return err
	}
	var ingested, correlated, uncorrelated, pending uint64
	if _, err := fmt.Sscanf(reply, "ingested=%d correlated=%d uncorrelated=%d pending=%d",
		&ingested, &correlated, &uncorrelated, &pending); err != nil {
		bad("stats", "reply %q does not parse: %v", reply, err)
	} else if ingested < q.lastStats[0] || correlated < q.lastStats[1] {
		bad("monotone", "stats went backwards: ingested %d -> %d, correlated %d -> %d",
			q.lastStats[0], ingested, q.lastStats[1], correlated)
	} else {
		q.lastStats = [2]uint64{ingested, correlated}
	}
	step(0)

	if reply, err = text("nodes"); err != nil {
		return err
	}
	if reply != "1 2" {
		bad("nodes", "reply %q, want \"1 2\"", reply)
	}
	step(1)

	if reply, err = text("load 1"); err != nil {
		return err
	}
	var node, inter int
	if _, err := fmt.Sscanf(reply, "node=%d interactions=%d", &node, &inter); err != nil || node != 1 || inter == 0 {
		bad("load", "reply %q, want node=1 with interactions > 0", reply)
	}
	step(2)

	if reply, err = text("classes 1"); err != nil {
		return err
	}
	if lines := strings.Split(reply, "\n"); len(lines) != len(serverPorts) || !strings.HasPrefix(lines[0], "port:") {
		bad("classes", "reply has %d lines, want one per server port: %q", len(lines), reply)
	}
	step(3)

	if reply, err = text("recent 200"); err != nil {
		return err
	}
	if n := strings.Count(reply, "\n") + 1; n != 200 {
		bad("recent", "reply has %d lines, want 200", n)
	}
	step(4)

	for i, cmd := range []string{"jstats", "jload 2"} {
		if reply, err = text(cmd); err != nil {
			return err
		}
		var env struct {
			Federation gpa.FederationStatus `json:"federation"`
			Data       json.RawMessage      `json:"data"`
		}
		if err := json.Unmarshal([]byte(reply), &env); err != nil || len(env.Data) == 0 {
			bad(cmd, "reply does not parse as a federation envelope: %v", err)
		} else if env.Federation.Partial || env.Federation.Shards != queryShards {
			bad("partial", "%q: federation status %+v", cmd, env.Federation)
		}
		step(5 + i)
	}

	e2e, st, err := q.fe.Correlated()
	if err != nil {
		return fmt.Errorf("Frontend.Correlated: %w", err)
	}
	if st.Partial {
		bad("partial", "Correlated: federation status %+v", st)
	}
	// A shard trims each lock stripe to its share of the cap, with 25 %
	// hysteresis. The federation routes by ShardHash % shards and the GPA
	// stripes by the same hash's low bits, so with two shards each fills
	// only every other stripe and holds half its cap: the floor is cap/2.
	if lo, hi := queryShards*queryCap/2, queryShards*(queryCap+queryCap/4); len(e2e) < lo || len(e2e) > hi {
		bad("history", "Correlated returned %d interactions, want %d..%d", len(e2e), lo, hi)
	}
	step(7)

	q.rec.lat = append(q.rec.lat, float64(t-rotStart)/1e6)
	q.rec.done(1)
	if rotSpan != 0 {
		q.tr.add(span{Name: "query.rotation", ID: rotSpan, Start: rotStart, End: t})
	}
	q.rotations++
	if !ok {
		q.failed++
	}
	return nil
}

func (q *queryMix) finish() (finalStats, error) {
	fs := finalStats{attempted: q.rotations, failed: q.failed, checks: q.checks}
	q.flushWriter()
	var ingested, correlated uint64
	var pending int
	for _, g := range q.gpas {
		st := g.StatsSnapshot()
		ingested += st.Ingested
		correlated += st.Correlated
		pending += g.PendingCount()
	}
	fs.check(ingested == q.written, "gpa.ingested %d != records written %d", ingested, q.written)
	fs.check(2*correlated == ingested && pending == 0, "gpa correlated %d pairs of %d records, %d pending", correlated, ingested, pending)
	return fs, nil
}

func (q *queryMix) setTracer(t *tracer) { q.tr = t }

func (q *queryMix) close() {
	for _, l := range q.lis {
		if l != nil {
			l.Close()
		}
	}
}

func (q *queryMix) layers(m metricSet) {
	for _, g := range q.gpas {
		st := g.StatsSnapshot()
		m.add("gpa.ingested", float64(st.Ingested))
		m.add("gpa.correlated", float64(st.Correlated))
		m.add("gpa.stale_pruned", float64(st.StalePruned))
		m.add("gpa.pending", float64(g.PendingCount()))
	}
	if m["gpa.ingested"] > 0 {
		m["gpa.correlated_ratio"] = 2 * m["gpa.correlated"] / m["gpa.ingested"]
	}
	for i, step := range querySteps {
		if s := q.stepLat[i]; len(s) > 0 {
			sort.Float64s(s)
			m["gpa.query_ms."+step] = s[len(s)/2]
		}
	}
	if q.rotations > 0 {
		m["gpa.reply_bytes_per_op"] = float64(q.dialC.readBytes.Load()-q.replyB0) / float64(q.rotations)
	}
}

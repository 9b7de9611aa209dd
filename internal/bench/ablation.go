package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

// The ablation experiments quantify the "performance gears" the paper
// credits for SysProf's low overhead (§5): selective monitoring,
// per-CPU double buffers, binary encodings, event hashing, and
// hierarchical (local-first) analysis.

// SelectiveResult compares throughput with monitoring off, with a
// narrowly-scoped subscriber (a scheduling-only analyzer, which prunes
// away the network fast path entirely), and with every event type on.
type SelectiveResult struct {
	OffMbps     float64
	DefaultMbps float64 // scheduling-events-only subscriber
	AllMbps     float64
}

// Render prints the ablation.
func (r SelectiveResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: selective monitoring (iperf goodput at 1 Gbps)\n")
	fmt.Fprintf(&sb, "  events off:          %7.1f Mbps\n", r.OffMbps)
	fmt.Fprintf(&sb, "  sched events only:   %7.1f Mbps (%.1f%% cost)\n",
		r.DefaultMbps, pctDrop(r.OffMbps, r.DefaultMbps))
	fmt.Fprintf(&sb, "  all events on:       %7.1f Mbps (%.1f%% cost)\n",
		r.AllMbps, pctDrop(r.OffMbps, r.AllMbps))
	return sb.String()
}

func pctDrop(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - v) / base * 100
}

// RunAblationSelective measures the value of event-set pruning.
func RunAblationSelective(dur time.Duration) (SelectiveResult, error) {
	run := func(mask kprof.Mask, subscribe bool) (float64, error) {
		eng := sim.NewEngine()
		network := simnet.NewNetwork(eng)
		sender, err := simos.NewNode(eng, network, "c", iperfOSConfig())
		if err != nil {
			return 0, err
		}
		receiver, err := simos.NewNode(eng, network, "s", iperfOSConfig())
		if err != nil {
			return 0, err
		}
		if err := network.Connect(sender.ID(), receiver.ID()); err != nil {
			return 0, err
		}
		if subscribe {
			for _, n := range []*simos.Node{sender, receiver} {
				lpa := core.NewLPA(n.Hub(), core.Config{WindowSize: 64})
				lpa.Subscription().SetMask(mask)
			}
		}
		return runIperfOn(eng, sender, receiver, dur)
	}
	var res SelectiveResult
	var err error
	if res.OffMbps, err = run(0, false); err != nil {
		return res, err
	}
	if res.DefaultMbps, err = run(kprof.MaskScheduling(), true); err != nil {
		return res, err
	}
	if res.AllMbps, err = run(kprof.MaskAll(), true); err != nil {
		return res, err
	}
	return res, nil
}

// runIperfOn drives the bulk transfer between two already-built nodes.
func runIperfOn(eng *sim.Engine, sender, receiver *simos.Node, dur time.Duration) (float64, error) {
	const (
		msgSize = 8 * 1024
		ackSize = 64
		window  = 16
	)
	rsock := receiver.MustBind(5001)
	ssock := sender.MustBind(5002)
	var received uint64
	receiver.Spawn("iperf-server", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(rsock, func(m *simos.Message) {
				received += uint64(m.Size)
				p.Reply(rsock, m, ackSize, nil, loop)
			})
		}
		loop()
	})
	inflight := 0
	var parked func()
	sender.Spawn("iperf-send", func(p *simos.Process) {
		var loop func()
		loop = func() {
			if inflight >= window {
				parked = loop
				return
			}
			inflight++
			p.Send(ssock, rsock.Addr(), msgSize, nil, loop)
		}
		loop()
	})
	sender.Spawn("iperf-ack", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				inflight--
				if parked != nil && inflight < window {
					resume := parked
					parked = nil
					resume()
				}
				loop()
			})
		}
		loop()
	})
	if err := eng.RunUntil(dur); err != nil {
		return 0, err
	}
	return float64(received) * 8 / dur.Seconds() / 1e6, nil
}

// BuffersResult compares record loss under a slow dissemination daemon
// with double vs single buffering.
type BuffersResult struct {
	Records     int
	DoubleDrops uint64
	SingleDrops uint64
	DoubleSwaps uint64
	SingleSwaps uint64
}

// Render prints the ablation.
func (r BuffersResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: per-CPU double buffers (slow daemon, records lost)\n")
	fmt.Fprintf(&sb, "  records offered:  %d\n", r.Records)
	fmt.Fprintf(&sb, "  double-buffered:  %d dropped (%d swaps)\n", r.DoubleDrops, r.DoubleSwaps)
	fmt.Fprintf(&sb, "  single-buffered:  %d dropped (%d swaps)\n", r.SingleDrops, r.SingleSwaps)
	return sb.String()
}

// RunAblationBuffers measures buffer-structure loss under a daemon whose
// copy latency approaches the fill rate.
func RunAblationBuffers(records, capacity int, fillGap, copyDelay time.Duration) (BuffersResult, error) {
	run := func(single bool) (uint64, uint64, error) {
		eng := sim.NewEngine()
		d := dissem.New(eng, nil, nil, dissem.Config{CopyDelay: copyDelay})
		buf := core.NewDoubleBuffer(capacity, func(batch *core.RecordColumns, release func()) {
			d.OnFull(0, batch, release)
		})
		buf.SetSingleBuffered(single)
		for i := 0; i < records; i++ {
			rec := core.Record{ID: uint64(i)}
			eng.Schedule(time.Duration(i)*fillGap, func() { buf.Push(&rec) })
		}
		if err := eng.Run(); err != nil {
			return 0, 0, err
		}
		drops, swaps := buf.Stats()
		return drops, swaps, nil
	}
	var res BuffersResult
	res.Records = records
	var err error
	if res.DoubleDrops, res.DoubleSwaps, err = run(false); err != nil {
		return res, err
	}
	if res.SingleDrops, res.SingleSwaps, err = run(true); err != nil {
		return res, err
	}
	return res, nil
}

// EncodingResult compares the PBIO columnar frames interaction records
// ship in against a JSON baseline.
type EncodingResult struct {
	Records     int
	BinaryBytes int
	JSONBytes   int
}

// Render prints the ablation.
func (r EncodingResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: PBIO columnar frames vs JSON (wire bytes)\n")
	fmt.Fprintf(&sb, "  records:  %d\n", r.Records)
	fmt.Fprintf(&sb, "  binary:   %d bytes (%.1f/record)\n",
		r.BinaryBytes, float64(r.BinaryBytes)/float64(r.Records))
	fmt.Fprintf(&sb, "  json:     %d bytes (%.1f/record, %.1fx larger)\n",
		r.JSONBytes, float64(r.JSONBytes)/float64(r.Records),
		float64(r.JSONBytes)/float64(r.BinaryBytes))
	return sb.String()
}

// sampleInteraction builds a representative interaction record.
func sampleInteraction(i int) core.Record {
	return core.Record{
		ID: uint64(i), Node: 2,
		Flow: simnet.FlowKey{
			Src: simnet.Addr{Node: 1, Port: uint16(1000 + i%64)},
			Dst: simnet.Addr{Node: 2, Port: 80},
		},
		Class: "port:80",
		Start: time.Duration(i) * time.Millisecond, End: time.Duration(i+3) * time.Millisecond,
		ReqPackets: 2, ReqBytes: 1800, RespPackets: 4, RespBytes: 5200,
		ProtoTime: 12 * time.Microsecond, TxTime: 9 * time.Microsecond,
		BufferWait: 140 * time.Microsecond, SyscallTime: 6 * time.Microsecond,
		UserTime: 420 * time.Microsecond, BlockedTime: 80 * time.Microsecond,
		ServerPID: 11, ServerProc: "httpd", CtxSwitches: 4, DiskOps: 1,
	}
}

// shippedBytes is what publishing batches of one row type costs on a
// subscriber link: the format definition once, then one compressed
// columnar frame per batch, as the broker sends them by default.
func shippedBytes(batches ...core.Batch) (int, error) {
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return 0, err
	}
	var wire []byte
	for i, b := range batches {
		p, cols := b.Columns(reg)
		if i == 0 {
			wire = p.Format().AppendDef(wire)
		}
		var err error
		if wire, _, err = p.AppendCompressedColumnsFrame(wire, cols); err != nil {
			return 0, err
		}
	}
	return len(wire), nil
}

// flushRows is core.Config's default BufferCapacity: the rows of a full
// buffer, which is one flushed batch.
const flushRows = 512

// recordBatches cuts recs into the batches full LPA buffers flush.
func recordBatches(recs []core.Record) []core.Batch {
	var out []core.Batch
	for lo := 0; lo < len(recs); lo += flushRows {
		cols := core.NewRecordColumns(flushRows)
		for i := lo; i < min(lo+flushRows, len(recs)); i++ {
			cols.Append(&recs[i])
		}
		out = append(out, cols)
	}
	return out
}

// RunAblationEncoding measures wire-size difference over n records.
func RunAblationEncoding(n int) (EncodingResult, error) {
	recs := make([]core.Record, n)
	var jsonBuf bytes.Buffer
	jenc := json.NewEncoder(&jsonBuf)
	for i := range recs {
		recs[i] = sampleInteraction(i)
		if err := jenc.Encode(&recs[i]); err != nil {
			return EncodingResult{}, err
		}
	}
	bin, err := shippedBytes(recordBatches(recs)...)
	if err != nil {
		return EncodingResult{}, err
	}
	return EncodingResult{Records: n, BinaryBytes: bin, JSONBytes: jsonBuf.Len()}, nil
}

// HashingResult compares LPA event-processing over hashed vs linear flow
// tables at a given flow population, measured in wall-clock time (the
// analyzer runs on the real CPU either way).
type HashingResult struct {
	Flows      int
	Events     int
	HashedNsOp float64
	LinearNsOp float64
}

// Render prints the ablation.
func (r HashingResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: event hashing (flow table lookup on the fast path)\n")
	fmt.Fprintf(&sb, "  flows: %d, events: %d\n", r.Flows, r.Events)
	fmt.Fprintf(&sb, "  hashed table:  %8.1f ns/event\n", r.HashedNsOp)
	fmt.Fprintf(&sb, "  linear scan:   %8.1f ns/event (%.1fx slower)\n",
		r.LinearNsOp, r.LinearNsOp/r.HashedNsOp)
	return sb.String()
}

// RunAblationHashing measures analyzer cost per event for both tables.
func RunAblationHashing(flows, events int) (HashingResult, error) {
	run := func(linear bool) (float64, error) {
		hub := kprof.NewHub(2, func() time.Duration { return 0 })
		hub.SetPerEventCost(0)
		lpa := core.NewLPA(hub, core.Config{Linear: linear, WindowSize: 16})
		defer lpa.Close()
		evs := make([]kprof.Event, flows)
		for i := range evs {
			evs[i] = kprof.Event{
				Type: kprof.EvNetRx,
				Flow: simnet.FlowKey{
					Src: simnet.Addr{Node: 1, Port: uint16(i + 1)},
					Dst: simnet.Addr{Node: 2, Port: 80},
				},
				Bytes: 100,
			}
		}
		start := time.Now()
		for i := 0; i < events; i++ {
			hub.Emit(&evs[i%flows])
		}
		elapsed := time.Since(start)
		return float64(elapsed.Nanoseconds()) / float64(events), nil
	}
	var res HashingResult
	res.Flows, res.Events = flows, events
	var err error
	if res.HashedNsOp, err = run(false); err != nil {
		return res, err
	}
	if res.LinearNsOp, err = run(true); err != nil {
		return res, err
	}
	return res, nil
}

// HierarchyResult compares what crosses the network when analysis is
// hierarchical (local LPA aggregation, per-class) versus shipping every
// interaction record to the GPA.
type HierarchyResult struct {
	Interactions   int
	RawRecordBytes int
	AggregateBytes int
}

// Render prints the ablation.
func (r HierarchyResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: hierarchical analysis (bytes shipped to the GPA)\n")
	fmt.Fprintf(&sb, "  interactions:            %d\n", r.Interactions)
	fmt.Fprintf(&sb, "  per-interaction records: %d bytes\n", r.RawRecordBytes)
	fmt.Fprintf(&sb, "  per-class aggregates:    %d bytes (%.0fx reduction)\n",
		r.AggregateBytes, float64(r.RawRecordBytes)/float64(maxInt(r.AggregateBytes, 1)))
	return sb.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunAblationHierarchy compares shipping raw records vs class aggregates
// for n interactions over c classes: the records in flush-sized batches,
// the aggregates as one flush's deltas.
func RunAblationHierarchy(n, classes int) (HierarchyResult, error) {
	recs := make([]core.Record, n)
	aggs := make(map[string]*core.Aggregate)
	for i := range recs {
		rec := &recs[i]
		*rec = sampleInteraction(i)
		rec.Class = fmt.Sprintf("class:%d", i%classes)
		agg := aggs[rec.Class]
		if agg == nil {
			agg = &core.Aggregate{Class: rec.Class}
			aggs[rec.Class] = agg
		}
		agg.Add(rec)
	}
	raw, err := shippedBytes(recordBatches(recs)...)
	if err != nil {
		return HierarchyResult{}, err
	}
	var deltas dissem.AggregateBatch
	for _, a := range aggs {
		deltas = append(deltas, dissem.WireAggregate{Node: 2, Aggregate: *a})
	}
	agg, err := shippedBytes(deltas)
	if err != nil {
		return HierarchyResult{}, err
	}
	return HierarchyResult{Interactions: n, RawRecordBytes: raw, AggregateBytes: agg}, nil
}

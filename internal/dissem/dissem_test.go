package dissem

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
	"sysprof/internal/procfs"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

func sampleRecord(id uint64) core.Record {
	return core.Record{
		ID: id, Node: 2,
		Flow: simnet.FlowKey{
			Src: simnet.Addr{Node: 1, Port: 1000},
			Dst: simnet.Addr{Node: 2, Port: 80},
		},
		Class: "port:80", Start: time.Millisecond, End: 3 * time.Millisecond,
		ReqPackets: 1, ReqBytes: 500, RespPackets: 2, RespBytes: 2900,
		ProtoTime: 10 * time.Microsecond, TxTime: 20 * time.Microsecond,
		BufferWait: 100 * time.Microsecond, SyscallTime: 5 * time.Microsecond,
		UserTime: 200 * time.Microsecond, BlockedTime: 50 * time.Microsecond,
		ServerPID: 7, ServerProc: "httpd", CtxSwitches: 3, DiskOps: 1,
	}
}

// rowsOf materializes a columnar batch for row-by-row comparison.
func rowsOf(cols *core.RecordColumns) []core.Record {
	out := make([]core.Record, cols.Len())
	for i := range out {
		out[i] = cols.Row(i)
	}
	return out
}

// TestRecordEncodesWithPBIO round-trips one core.Record as a one-row
// columnar frame: the format is derived from the nested struct itself, so
// the decoded batch must land every flattened field back in its nested
// slot.
func TestRecordEncodesWithPBIO(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Lookup("sysprof.interaction").Fields); got != core.RecordWireFields {
		t.Fatalf("interaction format has %d fields, core.RecordWireFields = %d", got, core.RecordWireFields)
	}
	r := sampleRecord(1)
	cols := core.NewRecordColumns(1)
	cols.Append(&r)
	rec, err := pbio.NewDecoder(bytes.NewReader(shipped(t, reg, cols)), reg).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Value.(*core.RecordColumns)
	if !ok || got.Len() != 1 {
		t.Fatalf("decoded %T", rec.Value)
	}
	if got.Row(0) != r {
		t.Fatalf("pbio round trip mismatch: %+v", got.Row(0))
	}
}

// shipped frames a batch the way the broker sends it on a fresh link: the
// format definition, then one compressed columnar frame.
func shipped(t *testing.T, reg *pbio.Registry, b core.Batch) []byte {
	t.Helper()
	p, cols := b.Columns(reg)
	frame, _, err := p.AppendCompressedColumnsFrame(p.Format().AppendDef(nil), cols)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestDaemonPublishesDrainedBatches(t *testing.T) {
	eng := sim.NewEngine()
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()

	var got []core.Record
	broker.Subscribe(ChannelInteractions, func(rec any) {
		batch, ok := rec.(*core.RecordColumns)
		if !ok {
			t.Errorf("local subscriber got %T, want *core.RecordColumns", rec)
			return
		}
		// The batch is only valid during the callback.
		got = append(got, rowsOf(batch)...)
	})

	d := New(eng, broker, nil, Config{CopyDelay: time.Millisecond})
	buf := core.NewBufferSet(1, 2, d.OnFull)
	for id := uint64(1); id <= 2; id++ {
		rec := sampleRecord(id)
		buf.Push(0, &rec)
	}
	if len(got) != 0 {
		t.Fatal("records published before copy delay elapsed")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("published %d, want 2", len(got))
	}
	st := d.Stats()
	if st.BatchesDrained != 1 || st.BatchesPublished != 1 || st.RecordsPublished != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDaemonReleaseAllowsReuse(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, nil, nil, Config{CopyDelay: time.Millisecond})
	buf := core.NewBufferSet(1, 1, d.OnFull)
	for i := uint64(1); i <= 3; i++ {
		rec := sampleRecord(i)
		buf.Push(0, &rec)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	drops, switches := buf.Stats()
	if drops != 0 || switches != 3 {
		t.Fatalf("drops=%d switches=%d", drops, switches)
	}
	if d.Stats().RecordsPublished != 3 {
		t.Fatalf("published = %d", d.Stats().RecordsPublished)
	}
}

func TestDaemonSlowCopyDropsRecords(t *testing.T) {
	// With a copy delay longer than it takes to fill both buffers, records
	// must drop — the paper's "if the data is not picked up in a timely
	// fashion, it may be overwritten".
	eng := sim.NewEngine()
	d := New(eng, nil, nil, Config{CopyDelay: time.Second})
	buf := core.NewBufferSet(1, 1, d.OnFull)
	for i := uint64(1); i <= 4; i++ {
		rec := sampleRecord(i)
		buf.Push(0, &rec)
	}
	drops, _ := buf.Stats()
	if drops == 0 {
		t.Fatal("no drops despite slow daemon")
	}
}

func TestDaemonPeriodicFlushAndProcfs(t *testing.T) {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	node, err := simos.NewNode(eng, network, "srv", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs := procfs.New()
	d := New(eng, nil, fs, Config{
		NodeName:      "srv",
		FlushInterval: 100 * time.Millisecond,
		MaxWindowAge:  200 * time.Millisecond,
	})
	lpa := core.NewLPA(node.Hub(), core.Config{OnFull: d.OnFull})
	d.Serve(lpa)
	d.Start()

	// Drive one synthetic event through the hub so the LPA has state.
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 9, Port: 5}, Dst: simnet.Addr{Node: node.ID(), Port: 80}}
	node.Hub().Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
	eng.RunFor(50 * time.Millisecond)

	if out, err := fs.Read("/sysprof/srv/lpa/0/stats"); err != nil || !strings.Contains(out, "events=") {
		t.Fatalf("stats entry: %q %v", out, err)
	}
	if _, err := fs.Read("/sysprof/srv/lpa/0/window"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/sysprof/srv/lpa/0/aggregates"); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	// Stop is idempotent on the timer and flushes the window.
	d.Stop()
}

func TestSetFlushInterval(t *testing.T) {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	node, err := simos.NewNode(eng, network, "srv", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()
	published := 0
	broker.Subscribe(ChannelAggregates, func(rec any) {
		published += len(rec.(AggregateBatch))
	})

	d := New(eng, broker, nil, Config{Node: node.ID(), FlushInterval: time.Hour})
	if d.FlushInterval() != time.Hour {
		t.Fatalf("FlushInterval = %v", d.FlushInterval())
	}
	if err := d.SetFlushInterval(0); err == nil {
		t.Fatal("non-positive interval accepted")
	}
	lpa := core.NewLPA(node.Hub(), core.Config{Granularity: core.PerClass, OnFull: d.OnFull})
	d.Serve(lpa)
	d.Start()

	// Complete one interaction so a pending aggregate exists.
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 9, Port: 5}, Dst: simnet.Addr{Node: node.ID(), Port: 80}}
	hub := node.Hub()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
	hub.Emit(&kprof.Event{Type: kprof.EvNetTx, Flow: flow.Reverse(), Bytes: 50, Last: true})
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})

	// At the hour-long default nothing flushes within 10 virtual seconds.
	// Retune to 1s and the pending aggregate must go out on the new cadence.
	if err := d.SetFlushInterval(time.Second); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Second)
	if published != 1 {
		t.Fatalf("published %d aggregates after retune, want 1", published)
	}
	if d.FlushInterval() != time.Second {
		t.Fatalf("FlushInterval after set = %v", d.FlushInterval())
	}
	d.Stop()
}

// TestAggWireRoundTrip sends an aggregate delta through pbio: the
// embedded core.Aggregate flattens into the row beside the node id, and
// the typed decode lands every field back.
func TestAggWireRoundTrip(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	want := WireAggregate{Node: 7, Aggregate: core.Aggregate{
		Class: "port:80", Count: 5,
		TotalResidence: 10 * time.Millisecond, TotalUser: 2 * time.Millisecond,
		TotalKernel: time.Millisecond, TotalBlocked: 3 * time.Millisecond,
		TotalBufWait: 500 * time.Microsecond,
		ReqBytes:     1000, RespBytes: 9000, MaxResidence: 4 * time.Millisecond,
	}}
	if got, want := len(reg.Lookup("sysprof.aggregate").Fields), 1+reflect.TypeOf(core.Aggregate{}).NumField(); got != want {
		t.Fatalf("aggregate format has %d fields, want the node plus core.Aggregate's %d", got, want-1)
	}
	rec, err := pbio.NewDecoder(bytes.NewReader(shipped(t, reg, AggregateBatch{want})), reg).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Value.([]WireAggregate)
	if !ok || rec.Format != "sysprof.aggregate" {
		t.Fatalf("decoded %T of format %q", rec.Value, rec.Format)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestDaemonPublishesClassAggregates(t *testing.T) {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	node, err := simos.NewNode(eng, network, "srv", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()

	var got []WireAggregate
	broker.Subscribe(ChannelAggregates, func(rec any) {
		batch, ok := rec.(AggregateBatch)
		if !ok {
			t.Errorf("local subscriber got %T, want AggregateBatch", rec)
			return
		}
		got = append(got, batch...)
	})

	d := New(eng, broker, nil, Config{Node: node.ID(), FlushInterval: 50 * time.Millisecond})
	lpa := core.NewLPA(node.Hub(), core.Config{Granularity: core.PerClass, OnFull: d.OnFull})
	d.Serve(lpa)

	// Drive one full interaction through the hub so an aggregate exists.
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 9, Port: 5}, Dst: simnet.Addr{Node: node.ID(), Port: 80}}
	hub := node.Hub()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
	hub.Emit(&kprof.Event{Type: kprof.EvNetTx, Flow: flow.Reverse(), Bytes: 50, Last: true})
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100}) // closes first

	d.FlushNow()
	if len(got) != 1 {
		t.Fatalf("published %d aggregates, want 1", len(got))
	}
	if got[0].Class != "port:80" || got[0].Count != 1 || got[0].Node != node.ID() {
		t.Fatalf("aggregate = %+v", got[0])
	}
	// Aggregate deltas are not interaction records: the record counters
	// are what "published + dropped = left the LPA buffers" is read from.
	if st := d.Stats(); st.AggregatesPublished != 1 || st.AggregatesDropped != 0 ||
		st.RecordsPublished != 0 || st.RecordsDropped != 0 || st.BatchesPublished != 1 {
		t.Fatalf("stats after an aggregate-only flush = %+v", st)
	}
	// Delta semantics: the LPA's aggregates were reset on publish.
	if len(lpa.Aggregates()) != 0 {
		t.Fatal("aggregates not reset after publish")
	}
	// A flush with nothing new publishes nothing.
	d.FlushNow()
	if len(got) != 1 {
		t.Fatalf("empty flush published: %d", len(got))
	}
}

// TestStopPublishesLastAggregates: an interaction that closes at class
// granularity after the last tick — or that Stop itself force-closes — is
// still in the LPA's aggregates when the daemon stops. Stop publishes
// them: every interaction the LPA counted reaches the aggregates channel.
func TestStopPublishesLastAggregates(t *testing.T) {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	node, err := simos.NewNode(eng, network, "srv", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()
	var delivered uint64
	broker.Subscribe(ChannelAggregates, func(rec any) {
		for _, w := range rec.(AggregateBatch) {
			delivered += w.Count
		}
	})

	d := New(eng, broker, nil, Config{Node: node.ID(), FlushInterval: time.Hour})
	lpa := core.NewLPA(node.Hub(), core.Config{Granularity: core.PerClass, OnFull: d.OnFull})
	d.Serve(lpa)
	d.Start()

	// One interaction closed by the next request, which Stop force-closes.
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 9, Port: 5}, Dst: simnet.Addr{Node: node.ID(), Port: 80}}
	hub := node.Hub()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
	hub.Emit(&kprof.Event{Type: kprof.EvNetTx, Flow: flow.Reverse(), Bytes: 50, Last: true})
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})

	d.Stop()
	want := lpa.Stats().Interactions
	if want == 0 || delivered != want {
		t.Fatalf("aggregates channel delivered Count %d after Stop, the LPA closed %d interactions", delivered, want)
	}
	if st := d.Stats(); st.AggregatesPublished == 0 || st.AggregatesDropped != 0 {
		t.Fatalf("stats after Stop = %+v", st)
	}
}

func TestProcfsBreakdownEntry(t *testing.T) {
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	node, err := simos.NewNode(eng, network, "srv", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs := procfs.New()
	d := New(eng, nil, fs, Config{NodeName: "srv"})
	lpa := core.NewLPA(node.Hub(), core.Config{OnFull: d.OnFull})
	d.Serve(lpa)

	out, err := fs.Read("/sysprof/srv/lpa/0/breakdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no interactions") {
		t.Fatalf("empty breakdown = %q", out)
	}
	// Complete one interaction, then the entry renders Figure-1 steps.
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 9, Port: 5}, Dst: simnet.Addr{Node: node.ID(), Port: 80}}
	hub := node.Hub()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
	hub.Emit(&kprof.Event{Type: kprof.EvNetTx, Flow: flow.Reverse(), Bytes: 50, Last: true})
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
	out, err = fs.Read("/sysprof/srv/lpa/0/breakdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "L2 kernel buffer wait") {
		t.Fatalf("breakdown = %q", out)
	}
}

package core

import (
	"testing"
	"testing/quick"
	"time"

	"sysprof/internal/kprof"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

// --- Flow-table unit tests ---

func TestFlowTablesAgree(t *testing.T) {
	ht, lt := NewHashedTable(4), NewLinearTable()
	keys := []simnet.FlowKey{
		{Src: simnet.Addr{Node: 1, Port: 10}, Dst: simnet.Addr{Node: 2, Port: 80}},
		{Src: simnet.Addr{Node: 2, Port: 80}, Dst: simnet.Addr{Node: 1, Port: 10}},
		{Src: simnet.Addr{Node: 3, Port: 5}, Dst: simnet.Addr{Node: 2, Port: 80}},
	}
	for _, k := range keys {
		ht.Get(k)
		lt.Get(k)
	}
	// Both directions of a flow share one state: 2 distinct flows.
	if ht.Len() != 2 || lt.Len() != 2 {
		t.Fatalf("lens hashed=%d linear=%d, want 2", ht.Len(), lt.Len())
	}
	if ht.Get(keys[0]) != ht.Get(keys[1]) {
		t.Fatal("hashed table: directions do not share state")
	}
	n := 0
	ht.Each(func(*flowState) { n++ })
	if n != 2 {
		t.Fatalf("Each visited %d", n)
	}
}

func TestFlowTableIdentityProperty(t *testing.T) {
	prop := func(an, ap, bn, bp uint16) bool {
		tbl := NewHashedTable(3)
		k := simnet.FlowKey{
			Src: simnet.Addr{Node: simnet.NodeID(an), Port: ap},
			Dst: simnet.Addr{Node: simnet.NodeID(bn), Port: bp},
		}
		return tbl.Get(k) == tbl.Get(k.Reverse()) && tbl.Len() == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Synthetic event-stream tests (drive the LPA directly) ---

type lpaHarness struct {
	hub *kprof.Hub
	lpa *LPA
	now time.Duration
}

func newLPAHarness(cfg Config) *lpaHarness {
	h := &lpaHarness{}
	h.hub = kprof.NewHub(2, func() time.Duration { return h.now })
	h.hub.SetPerEventCost(0)
	h.lpa = NewLPA(h.hub, cfg)
	return h
}

func (h *lpaHarness) at(d time.Duration, ev kprof.Event) {
	h.now = d
	h.hub.Emit(&ev)
}

var (
	cliAddr = simnet.Addr{Node: 1, Port: 1000}
	srvAddr = simnet.Addr{Node: 2, Port: 80}
	reqFlow = simnet.FlowKey{Src: cliAddr, Dst: srvAddr}
)

// playInteraction drives one request/response pair through the harness,
// starting at base. Returns the time after the final event.
func playInteraction(h *lpaHarness, base time.Duration) time.Duration {
	ms := func(d int) time.Duration { return base + time.Duration(d)*time.Millisecond }
	h.at(ms(0), kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 500})
	h.at(ms(1), kprof.Event{Type: kprof.EvNetDeliver, Flow: reqFlow, Bytes: 448})
	h.at(ms(3), kprof.Event{Type: kprof.EvNetUserRead, Flow: reqFlow, PID: 9, Proc: "server",
		Bytes: 448, Aux: int64(2 * time.Millisecond)})
	h.at(ms(4), kprof.Event{Type: kprof.EvSyscallEnter, PID: 9, Proc: "write"})
	h.at(ms(5), kprof.Event{Type: kprof.EvSyscallExit, PID: 9, Proc: "write"})
	h.at(ms(6), kprof.Event{Type: kprof.EvBlock, PID: 9})
	h.at(ms(8), kprof.Event{Type: kprof.EvWake, PID: 9})
	h.at(ms(10), kprof.Event{Type: kprof.EvNetSend, Flow: reqFlow.Reverse(), PID: 9, Bytes: 900})
	h.at(ms(11), kprof.Event{Type: kprof.EvNetTx, Flow: reqFlow.Reverse(), Bytes: 952, Last: true})
	return ms(11)
}

func TestLPAExtractsInteraction(t *testing.T) {
	h := newLPAHarness(Config{})
	end := playInteraction(h, 0)
	// Next request closes the first interaction.
	h.at(end+time.Millisecond, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 500})

	snap := h.lpa.Window().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("window has %d records, want 1", len(snap))
	}
	r := snap[0]
	if r.ReqPackets != 1 || r.ReqBytes != 500 {
		t.Fatalf("request counters: %+v", r)
	}
	if r.RespPackets != 1 || r.RespBytes != 952 {
		t.Fatalf("response counters: %+v", r)
	}
	if r.Start != 0 || r.End != 11*time.Millisecond {
		t.Fatalf("span %v..%v", r.Start, r.End)
	}
	if r.ProtoTime != time.Millisecond {
		t.Fatalf("ProtoTime = %v, want 1ms", r.ProtoTime)
	}
	if r.BufferWait != 2*time.Millisecond {
		t.Fatalf("BufferWait = %v, want 2ms", r.BufferWait)
	}
	if r.SyscallTime != time.Millisecond {
		t.Fatalf("SyscallTime = %v, want 1ms", r.SyscallTime)
	}
	if r.BlockedTime != 2*time.Millisecond {
		t.Fatalf("BlockedTime = %v, want 2ms", r.BlockedTime)
	}
	// Episode read@3ms..send@10ms = 7ms; minus 1ms syscall, 2ms blocked.
	if r.UserTime != 4*time.Millisecond {
		t.Fatalf("UserTime = %v, want 4ms", r.UserTime)
	}
	if r.ServerPID != 9 || r.ServerProc != "server" {
		t.Fatalf("server identity: %+v", r)
	}
	if r.TxTime != time.Millisecond {
		t.Fatalf("TxTime = %v, want 1ms (send@10 -> tx@11)", r.TxTime)
	}
	if r.Class != "port:80" {
		t.Fatalf("Class = %q", r.Class)
	}
	if r.KernelTime() != 1*time.Millisecond+2*time.Millisecond+1*time.Millisecond+1*time.Millisecond {
		t.Fatalf("KernelTime = %v", r.KernelTime())
	}
	if r.Residence() != 11*time.Millisecond {
		t.Fatalf("Residence = %v", r.Residence())
	}
}

func TestLPASequentialInteractionsGetDistinctIDs(t *testing.T) {
	h := newLPAHarness(Config{})
	base := time.Duration(0)
	for i := 0; i < 3; i++ {
		base = playInteraction(h, base) + time.Millisecond
	}
	h.lpa.FlushOpen()
	snap := h.lpa.Window().Snapshot()
	if len(snap) != 3 {
		t.Fatalf("window = %d records, want 3", len(snap))
	}
	seen := map[uint64]bool{}
	for _, r := range snap {
		if seen[r.ID] {
			t.Fatalf("duplicate interaction ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	if st := h.lpa.Stats(); st.Interactions != 3 {
		t.Fatalf("Interactions = %d", st.Interactions)
	}
}

func TestLPAMultiPacketMessageRuns(t *testing.T) {
	// Multiple packets in the same direction form one message (one
	// interaction side), per the paper's definition.
	h := newLPAHarness(Config{})
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	for i := 0; i < 4; i++ {
		h.at(ms(i), kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1500})
	}
	h.at(ms(5), kprof.Event{Type: kprof.EvNetTx, Flow: reqFlow.Reverse(), Bytes: 100, Last: true})
	h.at(ms(6), kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1500}) // next interaction
	snap := h.lpa.Window().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("records = %d, want 1", len(snap))
	}
	if snap[0].ReqPackets != 4 || snap[0].ReqBytes != 6000 {
		t.Fatalf("request run: %+v", snap[0])
	}
}

func TestLPAResponseWithoutRequestIgnored(t *testing.T) {
	h := newLPAHarness(Config{})
	// First event establishes request direction; a lone "response" run on
	// an unseen flow becomes that flow's request direction instead, so use
	// an explicit two-flow scenario: flow seen first outbound.
	h.at(0, kprof.Event{Type: kprof.EvNetTx, Flow: reqFlow.Reverse(), Bytes: 100})
	// Now inbound on the same canonical flow is the response direction and
	// there is an open interaction from the outbound run.
	h.at(time.Millisecond, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 100})
	h.at(2*time.Millisecond, kprof.Event{Type: kprof.EvNetTx, Flow: reqFlow.Reverse(), Bytes: 100})
	h.lpa.FlushOpen()
	// One interaction: outbound request, inbound response... then the
	// second outbound packet closed it.
	snap := h.lpa.Window().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("records = %d, want 1", len(snap))
	}
	if snap[0].Flow != reqFlow.Reverse() {
		t.Fatalf("request direction = %v, want outbound", snap[0].Flow)
	}
}

func TestLPAPerClassGranularity(t *testing.T) {
	h := newLPAHarness(Config{Granularity: PerClass})
	base := time.Duration(0)
	for i := 0; i < 4; i++ {
		base = playInteraction(h, base) + time.Millisecond
	}
	h.lpa.FlushOpen()
	if h.lpa.Window().Len() != 0 {
		t.Fatal("per-class mode should not fill the window")
	}
	aggs := h.lpa.Aggregates()
	agg, ok := aggs["port:80"]
	if !ok {
		t.Fatalf("aggregates = %v", aggs)
	}
	if agg.Count != 4 {
		t.Fatalf("class count = %d, want 4", agg.Count)
	}
	if agg.MeanUser() != 4*time.Millisecond {
		t.Fatalf("MeanUser = %v", agg.MeanUser())
	}
	h.lpa.ResetAggregates()
	if len(h.lpa.Aggregates()) != 0 {
		t.Fatal("ResetAggregates did not clear")
	}
}

func TestLPASwitchGranularityAtRuntime(t *testing.T) {
	h := newLPAHarness(Config{})
	base := playInteraction(h, 0)
	h.at(base+time.Millisecond, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1})
	h.lpa.SetGranularity(PerClass)
	if h.lpa.Granularity() != PerClass {
		t.Fatal("granularity not switched")
	}
	base = playInteraction(h, base+10*time.Millisecond)
	h.at(base+time.Millisecond, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1})
	if h.lpa.Window().Len() != 1 {
		t.Fatalf("window len = %d, want 1 (first interaction only)", h.lpa.Window().Len())
	}
	if aggs := h.lpa.Aggregates(); len(aggs) != 1 {
		t.Fatalf("aggs = %v", aggs)
	}
}

func TestLPAEvictionFillsBuffers(t *testing.T) {
	var drained int
	cfg := Config{
		WindowSize:     2,
		BufferCapacity: 2,
		OnFull: func(cpu int, batch *RecordColumns, release func()) {
			drained += batch.Len()
			release()
		},
	}
	h := newLPAHarness(cfg)
	base := time.Duration(0)
	for i := 0; i < 6; i++ {
		base = playInteraction(h, base) + time.Millisecond
	}
	h.at(base, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1})
	// 6 complete; window keeps 2; 4 evicted; buffer capacity 2 => 2 drains.
	if drained != 4 {
		t.Fatalf("drained = %d, want 4", drained)
	}
}

func TestLPACloseFlushesEverything(t *testing.T) {
	var drained int
	h := newLPAHarness(Config{OnFull: func(cpu int, batch *RecordColumns, release func()) {
		drained += batch.Len()
		release()
	}})
	base := playInteraction(h, 0)
	_ = base
	h.lpa.Close()
	if drained != 1 {
		t.Fatalf("drained = %d after Close, want 1 (open interaction flushed)", drained)
	}
	// Post-close events are not delivered.
	before := h.lpa.Stats().Events
	h.at(time.Second, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1})
	if h.lpa.Stats().Events != before {
		t.Fatal("closed LPA still receives events")
	}
}

func TestLPAInterleavedReadsCountDropped(t *testing.T) {
	h := newLPAHarness(Config{})
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	flow2 := simnet.FlowKey{Src: simnet.Addr{Node: 3, Port: 7}, Dst: srvAddr}
	h.at(ms(0), kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 100})
	h.at(ms(1), kprof.Event{Type: kprof.EvNetUserRead, Flow: reqFlow, PID: 9, Aux: 0})
	h.at(ms(2), kprof.Event{Type: kprof.EvNetRx, Flow: flow2, Bytes: 100})
	// Same PID reads a second flow before sending: first episode dropped.
	h.at(ms(3), kprof.Event{Type: kprof.EvNetUserRead, Flow: flow2, PID: 9, Aux: 0})
	if st := h.lpa.Stats(); st.DroppedEpisodes != 1 {
		t.Fatalf("DroppedEpisodes = %d, want 1", st.DroppedEpisodes)
	}
}

func TestLPAOnCompleteHook(t *testing.T) {
	var got []*Record
	h := newLPAHarness(Config{OnComplete: func(r *Record) { got = append(got, r) }})
	end := playInteraction(h, 0)
	h.at(end+time.Millisecond, kprof.Event{Type: kprof.EvNetRx, Flow: reqFlow, Bytes: 1})
	if len(got) != 1 || got[0].ServerPID != 9 {
		t.Fatalf("OnComplete got %v", got)
	}
}

// --- End-to-end: LPA over the simulated kernel ---

func TestLPAOverSimulatedKernel(t *testing.T) {
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
	lpa := NewLPA(server.Hub(), Config{})

	ssock := server.MustBind(80)
	csock := client.MustBind(4000)
	server.Spawn("httpd", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(2*time.Millisecond, func() {
					p.Reply(ssock, m, 4000, nil, loop)
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
		loop(5)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	lpa.FlushOpen()
	snap := lpa.Window().Snapshot()
	if len(snap) != 5 {
		t.Fatalf("interactions = %d, want 5", len(snap))
	}
	for _, r := range snap {
		if r.ServerProc != "httpd" {
			t.Fatalf("server proc = %q", r.ServerProc)
		}
		// 2ms of handler compute must appear as user time.
		if r.UserTime < 1900*time.Microsecond || r.UserTime > 2200*time.Microsecond {
			t.Fatalf("UserTime = %v, want ~2ms", r.UserTime)
		}
		if r.RespBytes < 4000 {
			t.Fatalf("RespBytes = %d, want >= 4000", r.RespBytes)
		}
		if r.RespPackets != simnet.FragmentCount(4000) {
			t.Fatalf("RespPackets = %d", r.RespPackets)
		}
		if r.KernelTime() <= 0 || r.KernelTime() > time.Millisecond {
			t.Fatalf("KernelTime = %v, want small positive", r.KernelTime())
		}
		if r.Residence() < 2*time.Millisecond {
			t.Fatalf("Residence = %v", r.Residence())
		}
	}
}

func TestLPALinearTableMatchesHashed(t *testing.T) {
	run := func(linear bool) []Record {
		h := newLPAHarness(Config{Linear: linear})
		base := time.Duration(0)
		for i := 0; i < 3; i++ {
			base = playInteraction(h, base) + time.Millisecond
		}
		h.lpa.FlushOpen()
		return h.lpa.Window().Snapshot()
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\nhashed: %+v\nlinear: %+v", i, a[i], b[i])
		}
	}
}

// TestLPARecycledStateMatchesFreshState pins the recycling of a flow's
// interaction state and of handling episodes. PID 4321 reads interaction
// 1 and never sends, so its episode outlives the interaction and keeps
// accumulating a syscall, a block, a disk issue and a context switch
// while interaction 2 runs in the state interaction 1 was built in. Its
// second read, of interaction 2, drops that episode (DroppedEpisodes)
// and opens one on interaction 2. The want records are what the LPA
// produced when every interaction and episode had state of its own: the
// outliving episode lands nowhere.
func TestLPARecycledStateMatchesFreshState(t *testing.T) {
	h := newLPAHarness(Config{})
	us := func(d int) time.Duration { return time.Duration(d) * time.Microsecond }
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 1, Port: 43210}, Dst: simnet.Addr{Node: 2, Port: 8080}}
	resp := flow.Reverse()
	const pid = 4321
	h.at(us(0), kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 700, CPU: 1})
	h.at(us(40), kprof.Event{Type: kprof.EvNetDeliver, Flow: flow, Bytes: 648})
	h.at(us(100), kprof.Event{Type: kprof.EvNetUserRead, Flow: flow, PID: pid, Proc: "api", Bytes: 648, Aux: int64(us(60))})
	h.at(us(150), kprof.Event{Type: kprof.EvSyscallEnter, PID: pid, Proc: "read"})
	h.at(us(400), kprof.Event{Type: kprof.EvNetTx, Flow: resp, Bytes: 1500, Last: true, CPU: 1})
	// Interaction 2 opens in interaction 1's recycled state.
	h.at(us(1000), kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 650, CPU: 1})
	h.at(us(1030), kprof.Event{Type: kprof.EvNetDeliver, Flow: flow, Bytes: 598})
	h.at(us(1100), kprof.Event{Type: kprof.EvSyscallExit, PID: pid, Proc: "read"})
	h.at(us(1200), kprof.Event{Type: kprof.EvBlock, PID: pid})
	h.at(us(1250), kprof.Event{Type: kprof.EvDiskIssue, PID: pid, Aux: 12345})
	h.at(us(1500), kprof.Event{Type: kprof.EvWake, PID: pid})
	h.at(us(1510), kprof.Event{Type: kprof.EvCtxSwitch, PID: 1234, PID2: pid})
	h.at(us(1600), kprof.Event{Type: kprof.EvNetUserRead, Flow: flow, PID: pid, Proc: "api", Bytes: 598, Aux: int64(us(90))})
	h.at(us(1700), kprof.Event{Type: kprof.EvSyscallEnter, PID: pid, Proc: "write"})
	h.at(us(1800), kprof.Event{Type: kprof.EvSyscallExit, PID: pid, Proc: "write"})
	h.at(us(2000), kprof.Event{Type: kprof.EvNetSend, Flow: resp, PID: pid, Bytes: 3000})
	h.at(us(2100), kprof.Event{Type: kprof.EvNetTx, Flow: resp, Bytes: 3052, Last: true, CPU: 1})
	h.at(us(3000), kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 10, CPU: 1})

	if st := h.lpa.Stats(); st.Interactions != 2 || st.DroppedEpisodes != 1 {
		t.Fatalf("stats %+v, want 2 interactions and 1 dropped episode", st)
	}
	want := []Record{
		{ID: 1, Node: 2, Flow: flow, Class: "port:8080", CPU: 1, Start: 0, End: us(400),
			ReqPackets: 1, ReqBytes: 700, RespPackets: 1, RespBytes: 1500,
			ProtoTime: us(40), BufferWait: us(60), ServerPID: pid, ServerProc: "api"},
		{ID: 2, Node: 2, Flow: flow, Class: "port:8080", CPU: 1, Start: us(1000), End: us(2100),
			ReqPackets: 1, ReqBytes: 650, RespPackets: 1, RespBytes: 3052,
			ProtoTime: us(30), TxTime: us(100), BufferWait: us(90), SyscallTime: us(100), UserTime: us(300),
			ServerPID: pid, ServerProc: "api"},
	}
	got := h.lpa.Window().Snapshot()
	if len(got) != len(want) {
		t.Fatalf("window holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestDefaultClassifiersArePerLPA: the built-in classifiers cache their
// names without a lock, so two LPAs on two goroutines must not share a
// cache. Run under -race.
func TestDefaultClassifiersArePerLPA(t *testing.T) {
	done := make(chan []Record, 2)
	for g := 0; g < 2; g++ {
		go func(client simnet.NodeID) {
			h := newLPAHarness(Config{})
			byClient := NewLPA(h.hub, Config{Classify: ClientClassifier()})
			flow := simnet.FlowKey{Src: simnet.Addr{Node: client, Port: 43210}, Dst: simnet.Addr{Node: 2, Port: 8080}}
			for i := 0; i < 50; i++ {
				h.at(time.Duration(2*i)*time.Microsecond, kprof.Event{Type: kprof.EvNetRx, Flow: flow, Bytes: 100})
				h.at(time.Duration(2*i+1)*time.Microsecond, kprof.Event{Type: kprof.EvNetTx, Flow: flow.Reverse(), Bytes: 50, Last: true})
			}
			h.lpa.FlushOpen()
			byClient.FlushOpen()
			done <- append(h.lpa.Window().Snapshot(), byClient.Window().Snapshot()...)
		}(simnet.NodeID(1017 + g))
	}
	for g := 0; g < 2; g++ {
		recs := <-done
		if len(recs) != 100 {
			t.Fatalf("%d records, want 100", len(recs))
		}
		client := recs[0].Flow.Src.Node
		for i, r := range recs {
			want := "port:8080"
			if i >= 50 {
				want = "client:" + itoa(int(client))
			}
			if r.Class != want {
				t.Fatalf("record %d class %q, want %q", i, r.Class, want)
			}
		}
	}
}

// interactionEvents is one interaction through every arm of LPA.handle:
// the request's rx, deliver and user read, the server's syscall with a
// block, a disk issue, a wake and a context switch inside it, its send
// and the response's tx. Replayed on the same flow, each request closes
// the interaction before it.
func interactionEvents(flow simnet.FlowKey, pid int32) []kprof.Event {
	resp := flow.Reverse()
	us := func(d int) time.Duration { return time.Duration(d) * time.Microsecond }
	return []kprof.Event{
		{Type: kprof.EvNetRx, Time: us(0), Flow: flow, Bytes: 1400, CPU: 1},
		{Type: kprof.EvNetDeliver, Time: us(20), Flow: flow, Bytes: 1348},
		{Type: kprof.EvNetUserRead, Time: us(50), Flow: flow, PID: pid, Proc: "httpd", Bytes: 1348, Aux: 30000},
		{Type: kprof.EvSyscallEnter, Time: us(60), PID: pid, Proc: "read"},
		{Type: kprof.EvBlock, Time: us(70), PID: pid},
		{Type: kprof.EvDiskIssue, Time: us(71), PID: pid, Aux: 4096},
		{Type: kprof.EvWake, Time: us(300), PID: pid},
		{Type: kprof.EvCtxSwitch, Time: us(301), PID: 1234, PID2: pid},
		{Type: kprof.EvSyscallExit, Time: us(320), PID: pid, Proc: "read"},
		{Type: kprof.EvNetSend, Time: us(400), Flow: resp, PID: pid, Bytes: 8192},
		{Type: kprof.EvNetTx, Time: us(420), Flow: resp, Bytes: 8244, Last: true, CPU: 1},
	}
}

// BenchmarkLPAInteraction is what the analyzer fast path costs per
// interaction in steady state: LPA.handle over 1024 flows visited
// round-robin, so each request closes the flow's previous interaction
// and the window evicts into the per-CPU buffers. One lap before the
// timer starts creates every flow.
func BenchmarkLPAInteraction(b *testing.B) {
	lpa := NewLPA(kprof.NewHub(2042, func() time.Duration { return 0 }), Config{})
	scripts := make([][]kprof.Event, 1024)
	for i := range scripts {
		flow := simnet.FlowKey{Src: simnet.Addr{Node: 1017, Port: uint16(10000 + i)}, Dst: simnet.Addr{Node: 2042, Port: 8080 + uint16(i%4)}}
		scripts[i] = interactionEvents(flow, int32(4000+i%8))
	}
	play := func(i int) {
		evs := scripts[i%len(scripts)]
		for j := range evs {
			lpa.handle(&evs[j])
		}
	}
	for i := range scripts {
		play(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		play(i)
	}
}

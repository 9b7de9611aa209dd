package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

// TestWireRoundTripProperty: every field of every event written through a
// Writer comes back from Replay, in order, whether the trace ends on a
// full batch or a partial one.
func TestWireRoundTripProperty(t *testing.T) {
	prop := func(evs []kprof.Event, frames uint8) bool {
		// Lead with up to two whole frames of zero events: the trace then
		// spans several frames, ending on a partial one unless evs is empty.
		evs = append(make([]kprof.Event, int(frames%3)*traceRows), evs...)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			w.Write(&evs[i])
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got []kprof.Event
		if _, err := Replay(&buf, func(ev *kprof.Event) error {
			got = append(got, *ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return slices.Equal(got, evs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// readCounter hides every method of a reader but Read, as a file does, and
// counts the calls.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReplayBuffersFileReads: Replay over a reader without ReadByte reads
// in blocks, not a field at a time.
func TestReplayBuffersFileReads(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const events = 1000
	for i := 0; i < events; i++ {
		w.Write(&kprof.Event{Type: kprof.EvNetRx, PID: int32(i), Proc: "httpd"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := &readCounter{r: &buf}
	if n, err := Replay(r, func(*kprof.Event) error { return nil }); err != nil || n != events {
		t.Fatalf("replayed %d, err %v", n, err)
	}
	if r.reads > events/10 {
		t.Fatalf("%d reads for %d events, want well under one per event", r.reads, events)
	}
}

func TestRecordAndReplay(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hub := kprof.NewHub(5, func() time.Duration { return 42 * time.Millisecond })
	hub.SetPerEventCost(0)
	sub := w.Attach(hub, kprof.MaskAll())
	_ = sub
	for i := int32(0); i < 10; i++ {
		hub.Emit(&kprof.Event{Type: kprof.EvNetRx, PID: i, Bytes: 100 * i})
	}
	w.Detach()
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx, PID: 99}) // not recorded
	if err := w.Close(); w.Events() != 10 || err != nil {
		t.Fatalf("events=%d err=%v", w.Events(), err)
	}

	var got []kprof.Event
	n, err := Replay(&buf, func(ev *kprof.Event) error {
		got = append(got, *ev)
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("replayed %d, err=%v", n, err)
	}
	for i, ev := range got {
		if ev.PID != int32(i) || ev.Node != 5 || ev.Time != 42*time.Millisecond {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestReplayAborts(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	hub := kprof.NewHub(1, func() time.Duration { return 0 })
	hub.SetPerEventCost(0)
	w.Attach(hub, kprof.MaskAll())
	for i := 0; i < 5; i++ {
		hub.Emit(&kprof.Event{Type: kprof.EvNetRx})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n, err := Replay(&buf, func(*kprof.Event) error { return boom })
	if !errors.Is(err, boom) || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestReplayTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	hub := kprof.NewHub(1, func() time.Duration { return 0 })
	hub.SetPerEventCost(0)
	w.Attach(hub, kprof.MaskAll())
	hub.Emit(&kprof.Event{Type: kprof.EvNetRx})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Replay(bytes.NewReader(raw[:len(raw)-3]), func(*kprof.Event) error { return nil }); err == nil {
		t.Fatal("truncated trace replayed cleanly")
	}
}

// Capture a live simulated run, then rebuild the same interaction records
// offline from the trace — analyses are reproducible from logs.
func TestOfflineAnalysisMatchesLive(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}

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
	// Live LPA and trace writer observe the same hub. The trace must be
	// attached with the LPA's own mask so replay sees identical input.
	liveLPA := core.NewLPA(server.Hub(), core.Config{WindowSize: 128})
	tw.Attach(server.Hub(), core.MaskDefault())

	ssock := server.MustBind(80)
	csock := client.MustBind(9000)
	server.Spawn("httpd", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(time.Millisecond, func() { p.Reply(ssock, m, 2048, nil, loop) })
			})
		}
		loop()
	})
	client.Spawn("cli", func(p *simos.Process) {
		var loop func(i int)
		loop = func(i int) {
			if i == 0 {
				return
			}
			p.Send(csock, ssock.Addr(), 200, nil, func() {
				p.Recv(csock, func(m *simos.Message) { loop(i - 1) })
			})
		}
		loop(5)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	liveLPA.FlushOpen()
	live := liveLPA.Window().Snapshot()
	if len(live) != 5 {
		t.Fatalf("live interactions = %d", len(live))
	}

	// Offline: replay the trace into a fresh LPA.
	var offlineLPA *core.LPA
	n, err := ReplaySession(&buf, func(node simnet.NodeID, hub *kprof.Hub) {
		if node == server.ID() {
			offlineLPA = core.NewLPA(hub, core.Config{WindowSize: 128})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || offlineLPA == nil {
		t.Fatalf("replayed %d events, lpa=%v", n, offlineLPA)
	}
	offlineLPA.FlushOpen()
	offline := offlineLPA.Window().Snapshot()
	if len(offline) != len(live) {
		t.Fatalf("offline interactions = %d, live = %d", len(offline), len(live))
	}
	for i := range live {
		l, o := live[i], offline[i]
		// IDs are analyzer-local; everything else must match exactly.
		o.ID = l.ID
		if l != o {
			t.Fatalf("interaction %d differs:\n live    %+v\n offline %+v", i, l, o)
		}
	}
}

// serverTrace is an n-event trace of events that each name their process,
// as a server's net_user_read does.
func serverTrace(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w.Write(&kprof.Event{Type: kprof.EvNetUserRead, Node: 2, PID: int32(i % 7), Time: time.Duration(i) * time.Microsecond,
			MsgID: uint64(i), Bytes: 512, Aux: int64(i % 100), Proc: "httpd"})
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayAllocs: a trace frame decodes into one []kprof.Event, so an
// event costs about its process name's string and nothing per field.
func TestReplayAllocs(t *testing.T) {
	const events = 8192
	raw := serverTrace(t, events)
	allocs := testing.AllocsPerRun(5, func() {
		if n, err := Replay(bytes.NewReader(raw), func(*kprof.Event) error { return nil }); err != nil || n != events {
			t.Fatalf("replayed %d of %d, err %v", n, events, err)
		}
	})
	if perEvent := allocs / events; perEvent > 3 {
		t.Fatalf("replay costs %.2f allocations per event, want at most 3", perEvent)
	}
}

// BenchmarkReplay replays an 8 192-event trace from memory.
func BenchmarkReplay(b *testing.B) {
	const events = 8192
	raw := serverTrace(b, events)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(bytes.NewReader(raw), func(*kprof.Event) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*events), "allocs/event")
}

package gpa

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"sysprof/internal/pbio"
)

// sameHistory fails unless got and want hold the same interactions,
// field for field and sequence tag included, once both are in seq order.
func sameHistory(t *testing.T, got, want []SeqEndToEnd) {
	t.Helper()
	bySeq := func(a, b SeqEndToEnd) int { return cmp.Compare(a.Seq, b.Seq) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, bySeq)
	slices.SortFunc(want, bySeq)
	if len(got) != len(want) {
		t.Fatalf("loaded %d interactions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("interaction %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestDumpLoadRoundTrip: whatever wrote a dump — an analyzer, an analyzer
// truncating as it goes, a federation with a shard down — and however
// many pages it took, LoadDump reads back exactly the history the writer
// held.
func TestDumpLoadRoundTrip(t *testing.T) {
	load := func(t *testing.T, dump *bytes.Buffer) []SeqEndToEnd {
		t.Helper()
		recs, err := LoadDump(dump)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	t.Run("Dump", func(t *testing.T) {
		g := seededGPA(t)
		var buf bytes.Buffer
		if n, err := g.Dump(&buf); err != nil || n != 1 {
			t.Fatalf("Dump = (%d, %v), want (1, nil)", n, err)
		}
		sameHistory(t, load(t, &buf), g.CorrelatedSeq())
	})
	t.Run("DumpAndTruncate appended", func(t *testing.T) {
		h := newFedHarness(t, 1, Config{})
		g, rng := h.shards[0], rand.New(rand.NewSource(3))
		var file bytes.Buffer
		var want []SeqEndToEnd
		for i := 0; i < 2; i++ {
			h.overlapWorkload(rng, 20)
			want = append(want, g.CorrelatedSeq()...)
			if _, err := g.DumpAndTruncate(&file); err != nil {
				t.Fatal(err)
			}
		}
		sameHistory(t, load(t, &file), want)
	})
	t.Run("Frontend.Dump", func(t *testing.T) {
		h := newFedHarness(t, 2, Config{})
		h.workload(16, 3)
		for _, dead := range []bool{false, true} {
			if dead {
				h.kill(1)
			}
			want, _, err := h.fe.CorrelatedSeq()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if st, err := h.fe.Dump(&buf); err != nil || st.Partial != dead {
				t.Fatalf("Dump with shard 1 dead=%v: status %+v, err %v", dead, st, err)
			}
			sameHistory(t, load(t, &buf), want)
		}
	})
	t.Run("several pages", func(t *testing.T) {
		defer func(rows int) { maxPageRows = rows }(maxPageRows)
		maxPageRows = 7
		h := newFedHarness(t, 1, Config{})
		h.overlapWorkload(rand.New(rand.NewSource(5)), 30)
		g := h.shards[0]
		var buf bytes.Buffer
		if _, err := g.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		dec := pbio.NewDecoder(bytes.NewReader(buf.Bytes()), pageReg)
		pages := 0
		for ; ; pages++ {
			page, err := readPage(dec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil || page.Len() > maxPageRows {
				t.Fatalf("page %d: %d rows, err %v", pages, page.Len(), err)
			}
		}
		want := g.CorrelatedSeq()
		if wantPages := (len(want) + maxPageRows - 1) / maxPageRows; pages != wantPages || pages < 2 {
			t.Fatalf("%d interactions dumped as %d pages, want %d", len(want), pages, wantPages)
		}
		sameHistory(t, load(t, &buf), want)
	})
}

// TestLoadDumpErrors: an empty file is an empty history; anything that is
// not a page stream — garbage, a truncated dump, a JSON-lines dump — is an
// error.
func TestLoadDumpErrors(t *testing.T) {
	recs, err := LoadDump(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty dump: %v %v", recs, err)
	}
	var dump bytes.Buffer
	if _, err := seededGPA(t).Dump(&dump); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"garbage":    "{not json}\n",
		"truncated":  dump.String()[:dump.Len()-5],
		"JSON lines": `{"flow":{"Src":{"Node":1,"Port":1000},"Dst":{"Node":2,"Port":80}}}` + "\n",
	} {
		if _, err := LoadDump(strings.NewReader(in)); err == nil {
			t.Errorf("%s: loaded", name)
		}
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

// TestLoadDumpBuffersFileReads: LoadDump over a reader without ReadByte
// reads in blocks, not a field at a time.
func TestLoadDumpBuffersFileReads(t *testing.T) {
	h := newFedHarness(t, 1, Config{})
	h.overlapWorkload(rand.New(rand.NewSource(7)), 1000)
	var dump bytes.Buffer
	n, err := h.shards[0].Dump(&dump)
	if err != nil {
		t.Fatal(err)
	}
	r := &readCounter{r: &dump}
	if recs, err := LoadDump(r); err != nil || len(recs) != n {
		t.Fatalf("loaded %d of %d interactions, err %v", len(recs), n, err)
	}
	if r.reads > n/10 {
		t.Fatalf("%d reads for %d interactions, want well under one per interaction", r.reads, n)
	}
}

func TestRateSeries(t *testing.T) {
	mk := func(class string, start time.Duration) EndToEnd {
		var e EndToEnd
		e.Server.Class = class
		e.Server.Start = start
		return e
	}
	recs := []EndToEnd{
		mk("a", 100*time.Millisecond),
		mk("a", 900*time.Millisecond),
		mk("b", 1100*time.Millisecond),
		mk("a", 2500*time.Millisecond),
	}
	series := RateSeries(recs, "a", time.Second)
	want := []int{2, 0, 1}
	if len(series) != len(want) {
		t.Fatalf("series = %v", series)
	}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
	all := RateSeries(recs, "", time.Second)
	if all[1] != 1 {
		t.Fatalf("all-class series = %v", all)
	}
	if RateSeries(nil, "a", time.Second) != nil {
		t.Fatal("empty input should yield nil")
	}
	if RateSeries(recs, "a", 0) != nil {
		t.Fatal("zero bucket should yield nil")
	}
}

func TestPredictorConstantSeries(t *testing.T) {
	p := NewPredictor(0, 0)
	for i := 0; i < 20; i++ {
		p.Observe(100)
	}
	if f := p.Forecast(5); math.Abs(f-100) > 1 {
		t.Fatalf("constant series forecast = %.2f, want ~100", f)
	}
	if p.Samples() != 20 {
		t.Fatalf("samples = %d", p.Samples())
	}
}

func TestPredictorLinearTrend(t *testing.T) {
	p := NewPredictor(0.6, 0.4)
	for i := 0; i < 30; i++ {
		p.Observe(float64(10 + 5*i)) // slope 5
	}
	// Next value would be 10 + 5*30 = 160.
	if f := p.Forecast(1); math.Abs(f-160) > 10 {
		t.Fatalf("trend forecast = %.1f, want ~160", f)
	}
	// Further horizon extrapolates the slope.
	if f3 := p.Forecast(3); f3 <= p.Forecast(1) {
		t.Fatal("forecast not increasing with horizon on rising trend")
	}
}

func TestPredictorNeverNegative(t *testing.T) {
	p := NewPredictor(0.9, 0.9)
	for v := 100.0; v >= 0; v -= 20 {
		p.Observe(v)
	}
	if f := p.Forecast(10); f < 0 {
		t.Fatalf("forecast = %.2f, want clamped at 0", f)
	}
	empty := NewPredictor(0, 0)
	if empty.Forecast(1) != 0 {
		t.Fatal("empty predictor should forecast 0")
	}
}

func TestPlanCapacity(t *testing.T) {
	// 200 req/s at 5 ms CPU each = 1 CPU of demand; at 70% target, 2
	// servers.
	plan, err := PlanCapacity("bidding", 200, 5*time.Millisecond, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.DemandCPUs-1.0) > 1e-9 {
		t.Fatalf("demand = %v", plan.DemandCPUs)
	}
	if plan.Servers != 2 {
		t.Fatalf("servers = %d, want 2", plan.Servers)
	}
	if _, err := PlanCapacity("x", 1, time.Millisecond, 0); err == nil {
		t.Fatal("zero target util accepted")
	}
	if _, err := PlanCapacity("x", -1, time.Millisecond, 0.5); err == nil {
		t.Fatal("negative rate accepted")
	}
	// Tiny but non-zero load still needs one server.
	plan, err = PlanCapacity("y", 0.1, time.Microsecond, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Servers != 1 {
		t.Fatalf("servers = %d, want 1 minimum", plan.Servers)
	}
}

func TestPlanFromAccounting(t *testing.T) {
	g, _ := newGPA(Config{})
	// Feed ten correlated interactions of one class, 1 per 100ms, with
	// 2ms user time on the server side.
	for i := 0; i < 10; i++ {
		start := time.Duration(i) * 100 * time.Millisecond
		c := clientRec(uint64(2*i+1), start)
		s := serverRec(uint64(2*i+2), start)
		s.UserTime = 2 * time.Millisecond
		g.Ingest(c)
		g.Ingest(s)
	}
	plans, err := g.PlanFromAccounting(100*time.Millisecond, 1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("plans = %+v", plans)
	}
	p := plans[0]
	if p.Class != "port:80" {
		t.Fatalf("class = %q", p.Class)
	}
	// ~1 interaction per 100ms bucket => ~10/s.
	if p.ForecastRate < 5 || p.ForecastRate > 15 {
		t.Fatalf("forecast rate = %.1f, want ~10/s", p.ForecastRate)
	}
	if p.Servers < 1 {
		t.Fatalf("servers = %d", p.Servers)
	}
}

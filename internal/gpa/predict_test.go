package gpa

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestDumpLoadRoundTrip(t *testing.T) {
	g := seededGPA(t)
	var buf bytes.Buffer
	if _, err := g.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := g.Correlated()
	if len(recs) != len(orig) {
		t.Fatalf("loaded %d, want %d", len(recs), len(orig))
	}
	for i := range recs {
		if recs[i].Flow != orig[i].Flow ||
			recs[i].Server.Start != orig[i].Server.Start ||
			recs[i].Client.End != orig[i].Client.End {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, recs[i], orig[i])
		}
	}
}

func TestLoadDumpErrors(t *testing.T) {
	if _, err := LoadDump(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("bad line accepted")
	}
	recs, err := LoadDump(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank dump: %v %v", recs, err)
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

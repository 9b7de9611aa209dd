package gpa

import (
	"fmt"
	"io"
	"math"
	"time"
)

// This file supports the paper's offline uses of GPA data: "The GPA
// periodically dumps its information onto local disk, which can be used
// later for purposes of auditing, workload prediction, and system
// modeling." LoadDump reads a dump back; RateSeries and Predictor turn
// correlated interactions into arrival-rate forecasts; PlanCapacity turns
// a forecast plus measured per-interaction cost into a server count.

// LoadDump reads a dump back: the pages Dump, DumpAndTruncate or
// Frontend.Dump wrote, any number of them appended to one file, as one
// history in completion order (the pages' (completion, seq) merge key).
// Each page is read under the same row guards as a shard's page reply.
func LoadDump(r io.Reader) ([]SeqEndToEnd, error) {
	page, err := readPages(r)
	if err != nil {
		return nil, fmt.Errorf("gpa: load dump: %w", err)
	}
	out := make([]SeqEndToEnd, page.Len())
	for k, i := range page.completionOrder(nil) {
		out[k].Seq = page.Seqs[i]
		page.copyRow(&out[k].EndToEnd, i)
	}
	return out, nil
}

// RateSeries buckets interactions by server-side start time and returns
// per-bucket completion counts for one class ("" = all classes).
func RateSeries(recs []EndToEnd, class string, bucket time.Duration) []int {
	if bucket <= 0 || len(recs) == 0 {
		return nil
	}
	maxIdx := 0
	idxOf := func(e *EndToEnd) int { return int(e.Server.Start / bucket) }
	for i := range recs {
		if class != "" && recs[i].Server.Class != class {
			continue
		}
		if idx := idxOf(&recs[i]); idx > maxIdx {
			maxIdx = idx
		}
	}
	series := make([]int, maxIdx+1)
	for i := range recs {
		if class != "" && recs[i].Server.Class != class {
			continue
		}
		series[idxOf(&recs[i])]++
	}
	return series
}

// Predictor forecasts arrival rates with double exponential smoothing
// (Holt's method): a level plus a trend, which handles the ramping
// workloads capacity planning cares about.
type Predictor struct {
	alpha, beta  float64
	level, trend float64
	n            int
}

// NewPredictor returns a predictor. alpha smooths the level, beta the
// trend; both must be in (0, 1]. Zero values default to 0.5 / 0.3.
func NewPredictor(alpha, beta float64) *Predictor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if beta <= 0 || beta > 1 {
		beta = 0.3
	}
	return &Predictor{alpha: alpha, beta: beta}
}

// Observe feeds the next sample (e.g. one RateSeries bucket).
func (p *Predictor) Observe(v float64) {
	switch p.n {
	case 0:
		p.level = v
	case 1:
		p.trend = v - p.level
		p.level = v
	default:
		prevLevel := p.level
		p.level = p.alpha*v + (1-p.alpha)*(p.level+p.trend)
		p.trend = p.beta*(p.level-prevLevel) + (1-p.beta)*p.trend
	}
	p.n++
}

// ObserveSeries feeds a whole series in order.
func (p *Predictor) ObserveSeries(series []int) {
	for _, v := range series {
		p.Observe(float64(v))
	}
}

// Forecast predicts the sample h steps ahead (h >= 1). Forecasts never go
// negative.
func (p *Predictor) Forecast(h int) float64 {
	if p.n == 0 {
		return 0
	}
	if h < 1 {
		h = 1
	}
	v := p.level + float64(h)*p.trend
	if v < 0 {
		return 0
	}
	return v
}

// Samples returns how many observations the predictor has seen.
func (p *Predictor) Samples() int { return p.n }

// CapacityPlan is a sizing recommendation derived from measured
// per-interaction cost and a forecast rate.
type CapacityPlan struct {
	Class string
	// ForecastRate is interactions/second at the planning horizon.
	ForecastRate float64
	// CPUPerInteraction is the measured mean user+kernel time.
	CPUPerInteraction time.Duration
	// DemandCPUs is forecast rate x per-interaction CPU (in CPUs).
	DemandCPUs float64
	// Servers is the recommended server count at the target utilization.
	Servers int
}

// PlanCapacity sizes a class: how many single-CPU servers keep CPU
// utilization at or below targetUtil for the forecast rate. It combines
// the GPA's measured per-interaction CPU cost (accounting data) with a
// rate forecast.
func PlanCapacity(class string, forecastRate float64, cpuPerInteraction time.Duration, targetUtil float64) (CapacityPlan, error) {
	if targetUtil <= 0 || targetUtil > 1 {
		return CapacityPlan{}, fmt.Errorf("gpa: target utilization %v out of (0,1]", targetUtil)
	}
	if forecastRate < 0 || cpuPerInteraction < 0 {
		return CapacityPlan{}, fmt.Errorf("gpa: negative forecast inputs")
	}
	demand := forecastRate * cpuPerInteraction.Seconds()
	servers := int(math.Ceil(demand / targetUtil))
	if servers < 1 && forecastRate > 0 {
		servers = 1
	}
	return CapacityPlan{
		Class:             class,
		ForecastRate:      forecastRate,
		CPUPerInteraction: cpuPerInteraction,
		DemandCPUs:        demand,
		Servers:           servers,
	}, nil
}

// PlanFromAccounting builds capacity plans for every class the GPA has
// accounted, forecasting from the correlated-interaction rate series.
func (g *GPA) PlanFromAccounting(bucket time.Duration, horizon int, targetUtil float64) ([]CapacityPlan, error) {
	recs := g.Correlated()
	var plans []CapacityPlan
	for _, row := range g.Accounting() {
		series := RateSeries(recs, row.Class, bucket)
		p := NewPredictor(0, 0)
		p.ObserveSeries(series)
		ratePerBucket := p.Forecast(horizon)
		rate := ratePerBucket / bucket.Seconds()
		var cpu time.Duration
		if row.Interactions > 0 {
			cpu = row.CPUTime / time.Duration(row.Interactions)
		}
		plan, err := PlanCapacity(row.Class, rate, cpu, targetUtil)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

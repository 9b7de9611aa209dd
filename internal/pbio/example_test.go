package pbio_test

import (
	"bytes"
	"fmt"
	"time"

	"sysprof/internal/pbio"
)

// Register a record format, frame a batch of rows into a self-describing
// stream, and decode the frame back into one batch.
func ExampleStructColumns() {
	type Metric struct {
		Name    string
		Value   int64
		Latency time.Duration
	}
	reg := pbio.NewRegistry()
	reg.MustRegister("metric", Metric{})

	plan, cols := pbio.StructColumns(reg, []Metric{
		{Name: "rps", Value: 150, Latency: 3 * time.Millisecond},
		{Name: "errs", Value: 2, Latency: 0},
	})
	wire, _, err := plan.AppendCompressedColumnsFrame(plan.Format().AppendDef(nil), cols)
	if err != nil {
		panic(err)
	}

	rec, err := pbio.NewDecoder(bytes.NewReader(wire), reg).Decode()
	if err != nil {
		panic(err)
	}
	for _, m := range rec.Value.([]Metric) {
		fmt.Printf("%s=%d (%v)\n", m.Name, m.Value, m.Latency)
	}
	// Output:
	// rps=150 (3ms)
	// errs=2 (0s)
}

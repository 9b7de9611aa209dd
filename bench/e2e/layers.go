package main

import (
	"bytes"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
)

// replayPBIO times the wire codec alone on batches captured from the run:
// encode through the broker's plan and decode from memory, in the frame
// kind the workload negotiated. Set beside pubsub.recv_us_per_batch it
// separates what decoding costs from what reading the socket costs.
func replayPBIO(m metricSet, plan *pbio.Plan, sample []*core.RecordColumns, compressed bool) {
	if plan == nil || len(sample) == 0 {
		return
	}
	encode := func(buf []byte, c *core.RecordColumns) []byte {
		var err error
		if compressed {
			buf, _, err = plan.AppendCompressedColumnsFrame(buf, c)
		} else {
			buf, _, err = plan.AppendColumnsFrame(buf, c)
		}
		if err != nil {
			panic(err) // the broker encoded these same batches a moment ago
		}
		return buf
	}
	rows := 0
	for _, c := range sample {
		rows += c.Len()
	}
	const reps = 20

	var buf []byte
	start := mono()
	for r := 0; r < reps; r++ {
		for _, c := range sample {
			buf = encode(buf[:0], c)
		}
	}
	m["pbio.encode_ns_per_record"] = float64(mono()-start) / float64(reps*rows)

	def := plan.Format().AppendDef(nil)
	stream := append([]byte(nil), def...)
	for _, c := range sample {
		stream = encode(stream, c)
	}
	m["pbio.wire_bytes_per_record"] = float64(len(stream)-len(def)) / float64(rows)

	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return
	}
	start = mono()
	for r := 0; r < reps; r++ {
		dec := pbio.NewDecoder(bytes.NewReader(stream), reg)
		for range sample {
			if _, err := dec.Decode(); err != nil {
				return
			}
		}
	}
	m["pbio.decode_ns_per_record"] = float64(mono()-start) / float64(reps*rows)
}

// dispatchCost measures what Hub.Emit costs before any analyzer runs: the
// common script into a hub whose one subscriber does nothing. Analyzer time
// is an emit span's self time minus this.
func dispatchCost(seed int64, d time.Duration) float64 {
	clk := newFreezableClock()
	clk.open()
	hub := kprof.NewHub(serverNode, clk.now)
	hub.Subscribe(kprof.MaskAll(), func(*kprof.Event) {})
	gen := newScriptGen(seed, 1024)
	start := mono()
	deadline := start + int64(d)
	for mono() < deadline {
		for i := 0; i < 32; i++ {
			gen.interaction(hub, hub)
		}
	}
	return float64(mono()-start) / float64(gen.events)
}

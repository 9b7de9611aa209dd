package pbio

import (
	"bytes"
	"testing"
	"time"
)

type benchRec struct {
	A int64
	B uint32
	C string
	D float64
	E time.Duration
}

// BenchmarkEncode measures one-record encode cost (hot path of the
// dissemination daemon).
func BenchmarkEncode(b *testing.B) {
	reg := NewRegistry()
	reg.MustRegister("bench", benchRec{})
	var buf bytes.Buffer
	enc := NewEncoder(&buf, reg)
	rec := benchRec{A: 1, B: 2, C: "abcdef", D: 3.5, E: time.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPBIOEncodeReuse measures steady-state encode cost through a
// reused encoder: the record is passed by pointer (no interface boxing)
// and the encoder's scratch buffer is recycled, so the loop should report
// 0 allocs/op.
func BenchmarkPBIOEncodeReuse(b *testing.B) {
	reg := NewRegistry()
	reg.MustRegister("bench", benchRec{})
	var buf bytes.Buffer
	enc := NewEncoder(&buf, reg)
	rec := benchRec{A: 1, B: 2, C: "abcdef", D: 3.5, E: time.Millisecond}
	if err := enc.Encode(&rec); err != nil { // format frame out of the way
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures one-record decode cost (GPA ingest path).
func BenchmarkDecode(b *testing.B) {
	reg := NewRegistry()
	reg.MustRegister("bench", benchRec{})
	var buf bytes.Buffer
	enc := NewEncoder(&buf, reg)
	rec := benchRec{A: 1, B: 2, C: "abcdef", D: 3.5, E: time.Millisecond}
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(rec); err != nil {
			b.Fatal(err)
		}
	}
	dec := NewDecoder(&buf, reg)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

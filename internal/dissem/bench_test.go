package dissem

import (
	"bytes"
	"reflect"
	"testing"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
)

// BenchmarkFlushEncode measures what a flush's aggregate deltas cost to
// frame: the rows viewed as columns by pbio.StructColumns (boxed once,
// as one publish does) and appended to a reused wire buffer, mirroring the
// broker encoding one shared frame for all subscribers. 0 allocs/op is
// the bar.
func BenchmarkFlushEncode(b *testing.B) {
	batch := make(AggregateBatch, 64)
	for i := range batch {
		r := sampleRecord(uint64(i + 1))
		batch[i] = WireAggregate{Node: r.Node, Aggregate: core.Aggregate{Class: r.Class, Count: uint64(i)}}
	}

	b.Run("direct-plan", func(b *testing.B) {
		reg := pbio.NewRegistry()
		if err := RegisterFormats(reg); err != nil {
			b.Fatal(err)
		}
		plan, cols := batch.Columns(reg)
		if plan == nil {
			b.Fatal("no plan bound for WireAggregate")
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, _, err := plan.AppendColumnsFrame(buf[:0], cols)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
}

// BenchmarkColumnsEncode measures the columnar wire encoders on a
// representative shard-link batch: the plain 0x04 columnar frame
// against the per-column compressed 0x05 frame WAN links negotiate.
// Compression trades encode CPU for wire bytes; this pins how much.
func BenchmarkColumnsEncode(b *testing.B) {
	cols := shardLinkBatch(512)
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		b.Fatal(err)
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	if plan == nil {
		b.Fatal("no plan bound for core.Record")
	}
	b.Run("plain", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, _, err := plan.AppendColumnsFrame(buf[:0], cols)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
	b.Run("compressed", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, _, err := plan.AppendCompressedColumnsFrame(buf[:0], cols)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
}

// BenchmarkColumnsDecode measures what every subscriber does with each
// frame it reads: the bound column decoder rebuilding a 512-row
// *core.RecordColumns from a plain and from a compressed frame.
func BenchmarkColumnsDecode(b *testing.B) {
	cols := shardLinkBatch(512)
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		b.Fatal(err)
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	def := plan.Format().AppendDef(nil)
	def = def[:len(def):len(def)] // the two streams must not share a tail
	plain, _, err := plan.AppendColumnsFrame(def, cols)
	if err != nil {
		b.Fatal(err)
	}
	compressed, _, err := plan.AppendCompressedColumnsFrame(def, cols)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
	}{{"plain", plain}, {"compressed", compressed}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec, err := pbio.NewDecoder(bytes.NewReader(tc.stream), reg).Decode()
				if err != nil {
					b.Fatal(err)
				}
				if rec.Value.(*core.RecordColumns).Len() != 512 {
					b.Fatal("short batch")
				}
			}
		})
	}
}

package pbio

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzRec exercises every length-prefixed wire kind plus fixed-width
// ones.
type fuzzRec struct {
	Name  string
	Count uint32
	Data  []byte
	Score float64
}

// fuzzSeeds builds well-formed streams (format + one-row compressed
// columns frame, format + batch) with the real frame builders, so the
// fuzzer starts from inputs that reach deep into the decoder.
func fuzzSeeds(tb testing.TB) [][]byte {
	reg := NewRegistry()
	if _, err := reg.Register("fuzz.rec", fuzzRec{}); err != nil {
		tb.Fatal(err)
	}
	p, one := StructColumns(reg, []fuzzRec{{Name: "alpha", Count: 7, Data: []byte{1, 2, 3}, Score: 0.5}})
	single, _, err := p.AppendCompressedColumnsFrame(p.Format().AppendDef(nil), one)
	if err != nil {
		tb.Fatal(err)
	}
	var batch bytes.Buffer
	writeBatch(tb, reg, &batch, []fuzzRec{
		{Name: "a", Count: 1},
		{Name: "b", Count: 2, Data: []byte("payload")},
	}, true)
	return [][]byte{single, batch.Bytes()}
}

// FuzzDecode feeds arbitrary bytes to the stream decoder over every
// source of TestDecoderPathsAgree. The decoder must never panic, every
// successful Decode consumes at least one byte, so it reaches an error
// (or clean EOF) within len(data)+1 calls, and every source yields the
// same records and the same error as the bytes in memory do: the window
// and the bare reader are one decoder. So does a reused decoder, Reset
// onto the input after it read a seed stream under a row limit: Reset
// leaves nothing of the previous stream behind. The hardening under test
// caps allocation from hostile length prefixes, zero-field formats, and
// inflated batch counts.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		if len(seed) > 4 {
			f.Add(seed[:len(seed)/2]) // truncation
		}
	}
	// Handcrafted edges: bad frame kind, format with huge field count,
	// the retired 0x03 batch kind.
	f.Add([]byte{0xEE})
	f.Add([]byte{frameFormat, 1, 0, 0, 0, 1, 0, 0, 0, 'x', 0xFF, 0xFF})
	f.Add([]byte{0x03, 9, 0, 0, 0, 1, 0, 0, 0})

	seeds := fuzzSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry()
		if _, err := reg.Register("fuzz.rec", fuzzRec{}); err != nil {
			t.Fatal(err)
		}
		decode := func(dec *Decoder) ([]*Record, error) {
			var recs []*Record
			for i := 0; i <= len(data); i++ {
				rec, err := dec.Decode()
				if err != nil {
					return recs, err
				}
				recs = append(recs, rec)
			}
			t.Fatalf("%d Decode calls succeeded on %d bytes of input", len(data)+1, len(data))
			return nil, nil
		}
		want, wantErr := decode(NewDecoder(bytes.NewReader(data), reg))
		reused := NewDecoder(nil, reg)
		for src, r := range sources(data) {
			got, err := decode(NewDecoder(r, reg))
			if !reflect.DeepEqual(got, want) || !sameErr(err, wantErr) {
				t.Fatalf("%s: %d records, err %v; in memory: %d records, err %v", src, len(got), err, len(want), wantErr)
			}
			for i, seed := range seeds {
				reused.Reset(bytes.NewReader(seed))
				reused.LimitRows(1)
				drain(reused)
				reused.Reset(sources(data)[src])
				got, err := decode(reused)
				if !reflect.DeepEqual(got, want) || !sameErr(err, wantErr) {
					t.Fatalf("%s, reset after seed %d: %d records, err %v; fresh: %d records, err %v",
						src, i, len(got), err, len(want), wantErr)
				}
			}
		}
	})
}

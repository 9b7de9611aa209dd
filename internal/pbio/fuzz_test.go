package pbio

import (
	"bytes"
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

// FuzzDecode feeds arbitrary bytes to the stream decoder. The decoder
// must never panic, and every successful Decode consumes at least one
// byte, so it reaches an error (or clean EOF) within len(data)+1 calls;
// the hardening under test caps allocation from hostile length prefixes,
// zero-field formats, and inflated batch counts.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry()
		if _, err := reg.Register("fuzz.rec", fuzzRec{}); err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(bytes.NewReader(data), reg)
		for i := 0; i <= len(data); i++ {
			if _, err := dec.Decode(); err != nil {
				return
			}
		}
		t.Fatalf("%d Decode calls succeeded on %d bytes of input", len(data)+1, len(data))
	})
}

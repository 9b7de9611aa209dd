package pbio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

type sample struct {
	A    int64
	B    uint32
	C    string
	D    float64
	E    bool
	F    time.Duration
	G    []byte
	skip int // unexported: excluded
}

type other struct {
	X int32
	Y string
}

func newPair(t *testing.T) (*Registry, *bytes.Buffer) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register("sample", sample{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("other", other{}); err != nil {
		t.Fatal(err)
	}
	return reg, new(bytes.Buffer)
}

// writeBatch appends vs to buf as one columns frame, built out of stream
// the way the pubsub connection writer does: the plan's frame builder over
// the rows viewed as columns, preceded by the format definition when
// withDef is set (the stream has not carried the format yet). None of the
// test formats binds a ColumnDecoder, so the decoder hands the frame back
// as one []T per Decode.
func writeBatch[T any](t testing.TB, reg *Registry, buf *bytes.Buffer, vs []T, withDef bool) {
	t.Helper()
	p, cols := StructColumns(reg, vs)
	if p == nil {
		t.Fatalf("no plan for %T", vs)
	}
	var frame []byte
	if withDef {
		frame = p.Format().AppendDef(frame)
	}
	frame, _, err := p.AppendColumnsFrame(frame, cols)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
}

func TestRoundTripTyped(t *testing.T) {
	reg, buf := newPair(t)
	in := sample{A: -42, B: 7, C: "hello", D: 3.25, E: true, F: 1500 * time.Millisecond, G: []byte{1, 2, 3}}
	writeBatch(t, reg, buf, []sample{in}, true)
	dec := NewDecoder(buf, reg)
	rec, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Format != "sample" {
		t.Fatalf("format = %q", rec.Format)
	}
	got, ok := rec.Value.([]sample)
	if !ok {
		t.Fatalf("Value type = %T", rec.Value)
	}
	if !reflect.DeepEqual(got, []sample{in}) {
		t.Fatalf("round trip: got %+v, want %+v", got, in)
	}
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// everyOp has a field of every load opcode, one of them in a nested
// struct.
type everyOp struct {
	B   bool
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	I   int
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	U   uint
	F32 float32
	F64 float64
	S   string
	Raw []byte
	D   time.Duration
	In  struct {
		Tag  string
		Port uint16
	}
}

// everyOpRows are everyOp rows at the edges of every field's range.
func everyOpRows() []everyOp {
	rows := []everyOp{
		{B: true, I8: -128, I16: -32768, I32: -1 << 31, I64: -1 << 63, I: -1, U8: 255, U16: 65535,
			U32: 1<<32 - 1, U64: 1<<64 - 1, U: 1 << 40, F32: -1.5, F64: 1e300, S: "ünïcode", Raw: []byte{0, 1, 255}, D: -time.Second},
		{I8: 127, I16: 32767, I32: 1<<31 - 1, I64: 1<<63 - 1, I: 1 << 50, F32: 3.25e-3, F64: -0.5, Raw: []byte{}, D: time.Hour},
		{B: true, S: "x", Raw: []byte("payload")},
	}
	rows[0].In.Tag, rows[0].In.Port = "port:80", 80
	rows[2].In.Port = 65535
	return rows
}

// TestRoundTripEveryOpcode: a row struct with a field of every opcode
// comes back from a plain and a compressed frame as the same []T.
func TestRoundTripEveryOpcode(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("every", everyOp{})
	in := everyOpRows()
	p, cols := StructColumns(reg, in)
	plain, _, err := p.AppendColumnsFrame(p.Format().AppendDef(nil), cols)
	if err != nil {
		t.Fatal(err)
	}
	packed, _, err := p.AppendCompressedColumnsFrame(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(append(plain, packed...)), reg)
	for _, kind := range []string{"0x04", "0x05"} {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got, ok := rec.Value.([]everyOp); !ok || !reflect.DeepEqual(got, in) {
			t.Fatalf("%s frame decoded to %+v, want %+v", kind, rec.Value, in)
		}
	}
}

// TestFormatSentOncePerStream: a definition holds for the rest of the
// stream, so a later frame of the same format carries none and still
// decodes typed.
func TestFormatSentOncePerStream(t *testing.T) {
	reg, buf := newPair(t)
	writeBatch(t, reg, buf, []other{{X: 1}}, true)
	one := buf.Len()
	writeBatch(t, reg, buf, []other{{X: 2}}, false)
	two := buf.Len() - one
	if two >= one {
		t.Fatalf("second frame (%dB) not smaller than first with format header (%dB)", two, one)
	}
	dec := NewDecoder(buf, reg)
	for want := int32(1); want <= 2; want++ {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Value.([]other)[0].X; got != want {
			t.Fatalf("X = %d, want %d", got, want)
		}
	}
}

func TestMixedFormatsOneStream(t *testing.T) {
	reg, buf := newPair(t)
	writeBatch(t, reg, buf, []sample{{A: 1}}, true)
	writeBatch(t, reg, buf, []other{{X: 2}}, true)
	writeBatch(t, reg, buf, []sample{{A: 3}}, false)
	dec := NewDecoder(buf, reg)
	var names []string
	for {
		rec, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, rec.Format)
	}
	want := []string{"sample", "other", "sample"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v", names)
	}
}

// TestEncodeUnregisteredType: rows of a type the registry does not know
// have no plan to encode through.
func TestEncodeUnregisteredType(t *testing.T) {
	reg, _ := newPair(t)
	type unknown struct{ Z int }
	if p, cols := StructColumns(reg, []unknown{{}}); p != nil || cols != nil {
		t.Fatalf("StructColumns over an unregistered type = %v, %v; want no plan", p, cols)
	}
}

func TestRegisterErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("n", 42); err == nil {
		t.Fatal("non-struct sample should error")
	}
	if _, err := reg.Register("s", sample{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("s", other{}); err == nil {
		t.Fatal("duplicate name should error")
	}
	type bad struct{ M map[string]int }
	if _, err := reg.Register("bad", bad{}); err == nil {
		t.Fatal("unsupported field type should error")
	}
	if reg.Lookup("s") == nil || reg.Lookup("nope") != nil {
		t.Fatal("Lookup wrong")
	}
}

func TestTruncatedStream(t *testing.T) {
	reg, buf := newPair(t)
	writeBatch(t, reg, buf, []sample{{C: "truncate me"}}, true)
	raw := buf.Bytes()
	for _, cut := range []int{1, 3, len(raw) / 2, len(raw) - 1} {
		if cut <= 0 || cut >= len(raw) {
			continue
		}
		dec := NewDecoder(bytes.NewReader(raw[:cut]), reg)
		_, err := dec.Decode()
		if err == nil {
			t.Fatalf("cut at %d: expected error", cut)
		}
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: mid-frame truncation reported as clean EOF", cut)
		}
	}
}

// TestBadFrameKind: an unknown kind byte is refused, and so are the
// retired row frames — 0x02, one record, and 0x03, a row-major batch —
// even when a well-formed payload of a format the stream has defined
// follows the kind byte.
func TestBadFrameKind(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte{0xFF}), nil)
	if _, err := dec.Decode(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}

	for kind, count := range map[byte][]byte{0x02: nil, 0x03: {1, 0, 0, 0}} {
		reg, buf := newPair(t)
		writeBatch(t, reg, buf, []other{{X: 1}}, true)
		buf.Write([]byte{kind, byte(reg.Lookup("other").ID), 0, 0, 0}) // kind, format id
		buf.Write(count)                                               // 0x03: one row
		buf.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0})                      // X = 2, Y = ""
		dec = NewDecoder(buf, reg)
		if rec, err := dec.Decode(); err != nil || rec.Value.([]other)[0].X != 1 {
			t.Fatalf("record before the 0x%02x frame: %+v, %v", kind, rec, err)
		}
		if rec, err := dec.Decode(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("0x%02x frame decoded to %+v, err = %v; want ErrBadFrame", kind, rec, err)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindDuration.String() != "duration" || Kind(99).String() != "kind(99)" {
		t.Fatal("kind names wrong")
	}
}

// TestFieldMismatchDecodesNoValue: sender and receiver both call a format
// "evt" but with different layouts. The receiver consumes the frame
// without mis-filling its struct — the record names the format and
// carries no value — and the next frame still decodes.
func TestFieldMismatchDecodesNoValue(t *testing.T) {
	sreg, rreg := NewRegistry(), NewRegistry()
	sreg.MustRegister("evt", other{})
	sreg.MustRegister("next", flatRec{})
	rreg.MustRegister("evt", sample{})
	rreg.MustRegister("next", flatRec{})
	var buf bytes.Buffer
	writeBatch(t, sreg, &buf, []other{{X: 1, Y: "a"}, {X: 2, Y: "b"}}, true)
	writeBatch(t, sreg, &buf, []flatRec{{ID: 7, Class: "c"}}, true)
	dec := NewDecoder(&buf, rreg)
	rec, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Format != "evt" || rec.Value != nil {
		t.Fatalf("mismatched layout decoded to %+v, want format evt and no value", rec)
	}
	rec, err = dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rec.Value.([]flatRec); !ok || len(got) != 1 || got[0].ID != 7 || got[0].Class != "c" {
		t.Fatalf("frame after the mismatch decoded to %+v", rec.Value)
	}
}

// Property: any sample round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("sample", sample{})
	prop := func(a int64, b uint32, c string, d float64, e bool, f int64, g []byte) bool {
		in := sample{A: a, B: b, C: c, D: d, E: e, F: time.Duration(f), G: g}
		var buf bytes.Buffer
		writeBatch(t, reg, &buf, []sample{in}, true)
		rec, err := NewDecoder(&buf, reg).Decode()
		if err != nil {
			return false
		}
		got := rec.Value.([]sample)[0]
		if len(in.G) == 0 && len(got.G) == 0 {
			got.G, in.G = nil, nil
		}
		return reflect.DeepEqual(got, in)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary byte garbage never panics the decoder; it errors or
// hits EOF.
func TestDecoderRobustToGarbage(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("sample", sample{})
	prop := func(garbage []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		dec := NewDecoder(bytes.NewReader(garbage), reg)
		for i := 0; i < 100; i++ {
			if _, err := dec.Decode(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping one byte of a valid stream errors or yields a record
// — never panics.
func TestDecoderRobustToCorruption(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("sample", sample{})
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		writeBatch(t, reg, &buf, []sample{{A: int64(i), C: "hello world"}}, i == 0)
	}
	valid := buf.Bytes()
	for pos := 0; pos < len(valid); pos++ {
		corrupted := make([]byte, len(valid))
		copy(corrupted, valid)
		corrupted[pos] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with corruption at byte %d: %v", pos, r)
				}
			}()
			dec := NewDecoder(bytes.NewReader(corrupted), reg)
			for i := 0; i < 10; i++ {
				if _, err := dec.Decode(); err != nil {
					return
				}
			}
		}()
	}
}

func TestBatchRoundTrip(t *testing.T) {
	reg, buf := newPair(t)
	in := []sample{
		{A: 1, C: "one", F: time.Millisecond, G: []byte{}},
		{A: 2, C: "two", E: true, G: []byte{4, 5}},
		{A: 3, C: "three", G: []byte{9}},
	}
	writeBatch(t, reg, buf, in, true)
	dec := NewDecoder(buf, reg)
	rec, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Value.([]sample)
	if !ok {
		t.Fatalf("Value type = %T", rec.Value)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestBatchOfPointers: StructColumns strides a []T by the offsets of T's
// plan, so a slice of pointers to a registered type has no plan — it is
// refused, not read as if the pointer words were the struct.
func TestBatchOfPointers(t *testing.T) {
	reg, _ := newPair(t)
	if p, cols := StructColumns(reg, []*other{{X: 1, Y: "a"}, {X: 2, Y: "b"}}); p != nil || cols != nil {
		t.Fatalf("StructColumns over []*other = %v, %v; want no plan", p, cols)
	}
}

func TestBatchMixedWithSingles(t *testing.T) {
	reg, buf := newPair(t)
	writeBatch(t, reg, buf, []sample{{A: 1}}, true)
	writeBatch(t, reg, buf, []sample{{A: 2}, {A: 3}}, false) // def sent with the single above
	writeBatch(t, reg, buf, []other{{X: 4}}, true)
	dec := NewDecoder(buf, reg)
	for _, want := range [][]int64{{1}, {2, 3}} {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, s := range rec.Value.([]sample) {
			got = append(got, s.A)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("A = %v, want %v", got, want)
		}
	}
	rec, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Value.([]other); len(got) != 1 || got[0].X != 4 {
		t.Fatalf("other batch = %+v", got)
	}
}

func TestBatchTruncatedStream(t *testing.T) {
	reg, buf := newPair(t)
	writeBatch(t, reg, buf, []sample{{A: 1}, {A: 2}}, true)
	full := buf.Bytes()
	// The whole columns frame is consumed before its batch is returned, so
	// any truncation inside the frame surfaces immediately — and as
	// truncation, not as a clean EOF.
	for _, cut := range []int{3, len(full) / 2} {
		dec := NewDecoder(bytes.NewReader(full[:len(full)-cut]), reg)
		if _, err := dec.Decode(); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("truncated batch (cut %d): err = %v, want unexpected-EOF-ish", cut, err)
		}
	}
}

package pbio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

// flatRec is the hand-flattened wire-layout twin of nestedRec.
type flatRec struct {
	ID    uint64
	SrcN  uint16
	SrcP  uint16
	DstN  uint16
	DstP  uint16
	Class string
	Dur   time.Duration
}

type endpoint struct {
	N uint16
	P uint16
}

type nestedRec struct {
	ID    uint64
	Src   endpoint
	Dst   endpoint
	Class string
	Dur   time.Duration
}

// TestRegisterFlattensNested pins that a type nesting structs registers
// as the flat wire layout of its leaves: frame bytes identical to the
// hand-flattened twin's, fields named by dotted path, and typed decoding
// back into the nested shape.
func TestRegisterFlattensNested(t *testing.T) {
	flatReg, nestedReg := NewRegistry(), NewRegistry()
	flatReg.MustRegister("rec", flatRec{})
	f := nestedReg.MustRegister("rec", nestedRec{})

	wantNames := []string{"ID", "Src.N", "Src.P", "Dst.N", "Dst.P", "Class", "Dur"}
	if len(f.Fields) != len(wantNames) {
		t.Fatalf("nested format has %d fields, want %d", len(f.Fields), len(wantNames))
	}
	for i, fld := range f.Fields {
		if fld.Name != wantNames[i] || fld.Kind != flatReg.Lookup("rec").Fields[i].Kind {
			t.Fatalf("field %d = %s %s, want %s %s", i, fld.Name, fld.Kind,
				wantNames[i], flatReg.Lookup("rec").Fields[i].Kind)
		}
	}

	flat := flatRec{ID: 7, SrcN: 1, SrcP: 1000, DstN: 2, DstP: 80, Class: "port:80", Dur: time.Millisecond}
	nested := nestedRec{ID: 7, Src: endpoint{1, 1000}, Dst: endpoint{2, 80}, Class: "port:80", Dur: time.Millisecond}
	var a, b bytes.Buffer
	writeBatch(t, flatReg, &a, []flatRec{flat}, false)
	writeBatch(t, nestedReg, &b, []nestedRec{nested}, false)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("nested encoding differs from flat:\n flat   %x\n nested %x", a.Bytes(), b.Bytes())
	}

	var stream bytes.Buffer
	writeBatch(t, nestedReg, &stream, []nestedRec{nested}, true)
	rec, err := NewDecoder(&stream, nestedReg).Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Value.([]nestedRec)
	if !ok {
		t.Fatalf("decoded %T", rec.Value)
	}
	if len(got) != 1 || got[0] != nested {
		t.Fatalf("decoded %+v, want %+v", got, nested)
	}

	type badNested struct {
		ID  uint64
		Sub struct{ M map[string]int }
	}
	if _, err := nestedReg.Register("bad", badNested{}); err == nil {
		t.Fatal("unsupported nested field type accepted")
	}
}

func TestPlanFrameBuildersRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("rec", nestedRec{})
	p := reg.PlanFor(reflect.TypeOf(nestedRec{}))
	if p.Format().Name != "rec" {
		t.Fatalf("plan format = %q", p.Format().Name)
	}
	if got := reg.PlanFor(reflect.TypeOf(&nestedRec{})); got != p {
		t.Fatal("PlanFor did not resolve through pointers")
	}

	batch := []nestedRec{
		{ID: 1, Src: endpoint{1, 10}, Dst: endpoint{2, 80}, Class: "a", Dur: time.Second},
		{ID: 2, Src: endpoint{3, 11}, Dst: endpoint{4, 81}, Class: "b", Dur: time.Minute},
	}
	// Stream = def frame + a one-row compressed columns frame + a plain
	// columns frame, assembled by hand the way the pubsub broker does.
	var stream []byte
	stream = p.Format().AppendDef(stream)
	_, first := StructColumns(reg, batch[:1])
	stream, _, err := p.AppendCompressedColumnsFrame(stream, first)
	if err != nil {
		t.Fatal(err)
	}
	bp, cols := StructColumns(reg, batch)
	if bp != p {
		t.Fatalf("StructColumns resolved plan %v, want the registered one", bp)
	}
	var n int
	stream, n, err = p.AppendColumnsFrame(stream, cols)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("batch count = %d", n)
	}

	dec := NewDecoder(bytes.NewReader(stream), reg)
	var ids []uint64
	for i := 0; i < 2; i++ {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.Value.([]nestedRec) {
			ids = append(ids, r.ID)
		}
	}
	want := []uint64{1, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("decoded ids = %v, want %v", ids, want)
		}
	}

	// Empty batch appends nothing.
	before := len(stream)
	_, cols = StructColumns(reg, []nestedRec{})
	stream, n, err = p.AppendColumnsFrame(stream, cols)
	if err != nil || n != 0 || len(stream) != before {
		t.Fatalf("empty batch: n=%d err=%v grew=%v", n, err, len(stream) != before)
	}
	// Rows of a type the registry has no plan for are rejected.
	if bp, cols := StructColumns(reg, []flatRec{{}}); bp != nil || cols != nil {
		t.Fatal("rows of an unregistered type got a plan")
	}
}

// TestDecoderLimitRows: a consumer that knows how many rows it is owed
// caps what a columns frame may declare, and a frame over the
// cap is refused on its header — before any row is read or materialized.
func TestDecoderLimitRows(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("rec", flatRec{})
	p := reg.PlanFor(reflect.TypeOf(flatRec{}))
	def := p.Format().AppendDef(nil)
	_, cols := StructColumns(reg, make([]flatRec, 3))
	batch, _, err := p.AppendColumnsFrame(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	header := func(kind byte, rows uint32) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{kind}, p.Format().ID)
		return binary.LittleEndian.AppendUint32(b, rows)
	}

	for _, tc := range []struct {
		name  string
		frame []byte
		limit int
		ok    bool
	}{
		{"batch under the limit", batch, 3, true},
		{"batch over the limit", batch, 2, false},
		{"limit above the package bound clamps", batch, 1 << 40, true},
		{"non-positive limit refuses every frame", batch, -1, false},
		// Headers only: a refusal must not wait for the payload.
		{"columns header over the limit", header(frameColumns, 11), 10, false},
		{"compressed columns header over the limit", header(frameColumnsZ, 1<<20), 1 << 19, false},
	} {
		dec := NewDecoder(bytes.NewReader(append(append([]byte(nil), def...), tc.frame...)), reg)
		dec.LimitRows(tc.limit)
		_, err := dec.Decode()
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

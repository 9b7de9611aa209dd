package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"sysprof/internal/pbio"
)

// wireKindOf is the pbio kind each column kind travels as.
var wireKindOf = map[colKind]pbio.Kind{
	colU64: pbio.KindUint64, colDur: pbio.KindDuration, colInt: pbio.KindInt64,
	colStr: pbio.KindString, colNode: pbio.KindUint16, colFlow: pbio.KindUint16,
	colCPU: pbio.KindUint8, colPID: pbio.KindInt32,
}

type recordLeaf struct {
	name string
	typ  reflect.Type
	set  func(r *Record, v reflect.Value)
}

// recordLeaves flattens Record the way pbio does: depth-first through
// nested structs, a nested field named by its dotted path.
func recordLeaves(t reflect.Type, prefix string, chain []int) []recordLeaf {
	var out []recordLeaf
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		idx := append(append([]int(nil), chain...), i)
		if sf.Type.Kind() == reflect.Struct {
			out = append(out, recordLeaves(sf.Type, prefix+sf.Name+".", idx)...)
			continue
		}
		out = append(out, recordLeaf{prefix + sf.Name, sf.Type, func(r *Record, v reflect.Value) {
			reflect.ValueOf(r).Elem().FieldByIndex(idx).Set(v)
		}})
	}
	return out
}

type columnSlot struct {
	ptr unsafe.Pointer // the column's slice header in RecordColumns
	typ reflect.Type   // the slice type
}

// columnSlots lists every column the views and singletons reach, as the
// address of its slice header and the slice's type, keyed the way
// recordWire names it. The flow column appears once per piece.
func columnSlots(c *RecordColumns) map[[2]int]columnSlot {
	out := map[[2]int]columnSlot{}
	add := func(k colKind, i int, p any) {
		v := reflect.ValueOf(p)
		out[[2]int{int(k), i}] = columnSlot{v.UnsafePointer(), v.Type().Elem()}
	}
	for i, p := range c.u64s() {
		add(colU64, i, p)
	}
	for i, p := range c.durs() {
		add(colDur, i, p)
	}
	for i, p := range c.ints() {
		add(colInt, i, p)
	}
	for i, p := range c.strs() {
		add(colStr, i, p)
	}
	add(colNode, 0, &c.Nodes)
	add(colCPU, 0, &c.CPUs)
	add(colPID, 0, &c.ServerPIDs)
	for k := 0; k < 4; k++ {
		add(colFlow, k, &c.Flows)
	}
	return out
}

// TestRecordWireMatchesRecord holds the one column list to the two
// structs it describes. Record's flattened leaves, the registered
// format's fields and recordWire must agree on count, order, names and
// kinds; every RecordColumns field must sit in exactly one view or
// singleton, and every such slot must be on the wire exactly once. A
// field added to either struct alone fails here by name.
func TestRecordWireMatchesRecord(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := RegisterRecordFormat(reg); err != nil {
		t.Fatal(err)
	}
	fields := reg.Lookup(recordFormat).Fields
	leaves := recordLeaves(reflect.TypeOf(Record{}), "", nil)
	var c RecordColumns
	slots := columnSlots(&c)

	for i := 0; i < max(len(leaves), len(fields), len(recordWire)); i++ {
		if i >= len(leaves) || i >= len(fields) || i >= len(recordWire) {
			name := "?"
			switch {
			case i < len(leaves):
				name = leaves[i].name
			case i < len(recordWire):
				name = recordWire[i].name
			}
			t.Fatalf("wire field %d (%s): Record flattens to %d leaves, the format has %d fields, recordWire has %d entries",
				i, name, len(leaves), len(fields), len(recordWire))
		}
		w := recordWire[i]
		if leaves[i].name != w.name || fields[i].Name != w.name {
			t.Fatalf("wire field %d: Record has %s, the format %s, recordWire %s", i, leaves[i].name, fields[i].Name, w.name)
		}
		if fields[i].Kind != wireKindOf[w.kind] {
			t.Errorf("%s: format kind %v, recordWire's column kind %d travels as %v", w.name, fields[i].Kind, w.kind, wireKindOf[w.kind])
		}
		s, ok := slots[[2]int{int(w.kind), w.idx}]
		if !ok {
			t.Fatalf("%s: recordWire names slot (%d,%d), which no view has", w.name, w.kind, w.idx)
		}
		if w.kind != colFlow && s.typ.Elem() != leaves[i].typ {
			t.Errorf("%s: Record holds a %v, its column is a %v", w.name, leaves[i].typ, s.typ)
		}
		delete(slots, [2]int{int(w.kind), w.idx})
	}
	for k := range slots {
		t.Errorf("column slot (%d,%d) is in a view but not in recordWire", k[0], k[1])
	}

	// Every RecordColumns field is reached by exactly one view slot or
	// singleton.
	reached := map[unsafe.Pointer]int{}
	for k, s := range columnSlots(&c) {
		if colKind(k[0]) != colFlow || k[1] == 0 {
			reached[s.ptr]++
		}
	}
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if n := reached[cv.Field(i).Addr().UnsafePointer()]; n != 1 {
			t.Errorf("RecordColumns.%s is in %d views or singletons, want 1", cv.Type().Field(i).Name, n)
		}
	}
	if len(reached) != cv.NumField() {
		t.Errorf("views and singletons reach %d columns, RecordColumns has %d fields", len(reached), cv.NumField())
	}
}

// distinctRecord fills every leaf of a Record with a value no other leaf
// of that row or of a neighbouring row holds, so a field dropped or
// crossed by Append, CopyRow, Row or either wire form shows.
func distinctRecord(row int) Record {
	var r Record
	for i, l := range recordLeaves(reflect.TypeOf(r), "", nil) {
		n := int64(100*row + i + 1)
		v := reflect.New(l.typ).Elem()
		switch l.typ.Kind() {
		case reflect.String:
			v.SetString(fmt.Sprintf("%s-%d", l.name, row%3))
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(n * (1 - 2*int64(i%2))) // both signs
		default:
			v.SetUint(uint64(n) % 251)
			if l.typ.Kind() == reflect.Uint64 {
				v.SetUint(^uint64(0) - uint64(n))
			}
		}
		l.set(&r, v)
	}
	return r
}

// TestRegisterRoundTrip: a registry that went through
// RegisterRecordFormat encodes a columnar batch as either frame kind and
// decodes it back, through the bound column decoder, into equal rows —
// and the three written-out row moves agree with each other on every
// field. (The frames' exact bytes, the broker paths and the hostile-input
// fuzzing are pinned from internal/dissem, which registers through here.)
func TestRegisterRoundTrip(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := RegisterRecordFormat(reg); err != nil {
		t.Fatal(err)
	}
	if err := RegisterRecordFormat(reg); err == nil {
		t.Fatal("registering the interaction format twice succeeded")
	}
	plan := reg.PlanFor(reflect.TypeOf(Record{}))
	if plan == nil || plan.Format().Name != recordFormat || len(plan.Format().Fields) != RecordWireFields {
		t.Fatalf("Record's plan is not the %s format with %d fields", recordFormat, RecordWireFields)
	}

	const rows = 70 // more rows than distinct strings: dictionaries with run tails
	cols := &RecordColumns{}
	want := make([]Record, rows)
	for i := range want {
		want[i] = distinctRecord(i)
		if i%7 < 3 {
			want[i].Node, want[i].CPU, want[i].ServerPID = 9, 1, -4 // runs
		}
		if i%2 == 0 {
			cols.Append(&want[i])
		} else {
			cols.Append(&want[i])
		}
		var got Record
		if cols.CopyRow(&got, i); got != want[i] || cols.Row(i) != want[i] {
			t.Fatalf("row %d:\nCopyRow %+v\n    Row %+v\n   want %+v", i, got, cols.Row(i), want[i])
		}
	}
	if err := cols.CheckRows(rows); err != nil {
		t.Fatal(err)
	}
	cols.Classes = cols.Classes[:rows-1]
	if err := cols.CheckRows(rows); err == nil {
		t.Fatal("CheckRows passed a batch with a short column")
	}
	cols.Classes = cols.Classes[:rows]

	// A string column past the dictionary cap falls back to raw.
	wide := &RecordColumns{}
	for i := 0; i < 2*zDictMax; i++ {
		wide.Append(&Record{ID: uint64(i), Class: fmt.Sprint("class-", i%(zDictMax+8)), ServerProc: "httpd"})
	}
	for field, w := range recordWire {
		if w.kind != colStr {
			continue
		}
		wantTag := byte(pbio.ColEncDict)
		if w.name == "Class" {
			wantTag = pbio.ColEncRaw
		}
		if buf := wide.AppendCompressedColumn(nil, field); buf[0] != wantTag {
			t.Errorf("%s column of the wide batch opens with tag %#x, want %#x", w.name, buf[0], wantTag)
		}
	}

	for _, batch := range []*RecordColumns{cols, wide} {
		stream := plan.Format().AppendDef(nil)
		stream, _, err := plan.AppendColumnsFrame(stream, batch)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err = plan.AppendCompressedColumnsFrame(stream, batch)
		if err != nil {
			t.Fatal(err)
		}
		dec := pbio.NewDecoder(bytes.NewReader(stream), reg)
		for _, kind := range []string{"0x04", "0x05"} {
			rec, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s frame: %v", kind, err)
			}
			got, ok := rec.Value.(*RecordColumns)
			if !ok || rec.Format != recordFormat {
				t.Fatalf("%s frame decoded to %T of format %q", kind, rec.Value, rec.Format)
			}
			if err := got.CheckRows(batch.Len()); err != nil {
				t.Fatalf("%s frame: %v", kind, err)
			}
			for i := 0; i < batch.Len(); i++ {
				if got.Row(i) != batch.Row(i) {
					t.Fatalf("%s frame row %d:\n got %+v\nwant %+v", kind, i, got.Row(i), batch.Row(i))
				}
			}
		}
	}
}

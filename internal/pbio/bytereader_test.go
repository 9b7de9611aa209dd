package pbio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// readOnly hides every method of a reader but Read, as a bare connection
// does: the decoder over it asks for exactly the bytes it needs.
type readOnly struct{ r io.Reader }

func (o readOnly) Read(p []byte) (int, error) { return o.r.Read(p) }

// trickle is a buffered source (it offers ReadByte) whose Read returns 1,
// 2, ... up to k bytes in turn, so the decoder's window refills land on
// every byte boundary of a frame.
type trickle struct {
	r    *bytes.Reader
	k, n int
}

func (t *trickle) Read(p []byte) (int, error) {
	t.n = t.n%t.k + 1
	return t.r.Read(p[:min(len(p), t.n)])
}

func (t *trickle) ReadByte() (byte, error) { return t.r.ReadByte() }

// sources are the readers a decoder sees, by name: a page in memory, a
// buffered source that trickles, and a bare connection.
func sources(b []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"in memory":    bytes.NewReader(b),
		"trickling 1":  &trickle{r: bytes.NewReader(b), k: 1},
		"trickling 3":  &trickle{r: bytes.NewReader(b), k: 3},
		"trickling 10": &trickle{r: bytes.NewReader(b), k: 10},
		"bare":         readOnly{bytes.NewReader(b)},
	}
}

// sameErr reports whether two decode errors say the same: equal, or the
// same message and both (or neither) a truncation.
func sameErr(a, b error) bool {
	return a == b || a != nil && b != nil && a.Error() == b.Error() &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF)
}

// decodeAll decodes until the stream errors and returns what it yielded.
func decodeAll(r io.Reader, reg *Registry) ([]*Record, error) { return drain(NewDecoder(r, reg)) }

// drain decodes until dec's stream errors and returns what it yielded.
func drain(dec *Decoder) ([]*Record, error) {
	var recs []*Record
	for {
		rec, err := dec.Decode()
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// goldenStreams are well-formed streams of every frame kind, each as the
// frames it is made of so the test knows where the boundaries fall.
func goldenStreams(t *testing.T) map[string][][]byte {
	reg := NewRegistry()
	reg.MustRegister("rec", flatRec{})
	p := reg.PlanFor(reflect.TypeOf(flatRec{}))
	rows := []flatRec{
		{ID: 7, SrcN: 1, SrcP: 1024, DstN: 2, DstP: 80, Class: "port:80", Dur: time.Millisecond},
		{ID: 9, SrcN: 1, SrcP: 1025, DstN: 2, DstP: 80, Class: "port:80", Dur: 3 * time.Second},
		{ID: 1 << 40, SrcN: 1, SrcP: 1026, DstN: 2, DstP: 80, Class: "", Dur: -1},
	}
	def := p.Format().AppendDef(nil)
	// Each row alone, as a one-row columns frame.
	var records [][]byte
	for i := range rows {
		_, one := StructColumns(reg, rows[i:i+1])
		record, _, err := p.AppendColumnsFrame(nil, one)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, record)
	}
	record := records[0]
	// The rows as the broker's generic adapter frames them: every column
	// raw. "unbound" is the same layout under a format name the decoding
	// side has never registered, so its frame decodes to no value.
	_, cols := StructColumns(reg, rows)
	rawZ, _, err := p.AppendCompressedColumnsFrame(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	reg.MustRegister("unbound", unboundRec{})
	up, ucols := StructColumns(reg, []unboundRec{unboundRec(rows[0]), unboundRec(rows[1]), unboundRec(rows[2])})
	unbound, _, err := up.AppendColumnsFrame(nil, ucols)
	if err != nil {
		t.Fatal(err)
	}
	// A field of every opcode, plain and compressed.
	reg.MustRegister("every", everyOp{})
	ep, ecols := StructColumns(reg, everyOpRows())
	everyPlain, _, err := ep.AppendColumnsFrame(nil, ecols)
	if err != nil {
		t.Fatal(err)
	}
	everyPacked, _, err := ep.AppendCompressedColumnsFrame(nil, ecols)
	if err != nil {
		t.Fatal(err)
	}

	header := func(kind byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{kind}, p.Format().ID)
		return binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	}
	u16 := func(b []byte, get func(*flatRec) uint16) []byte {
		for i := range rows {
			b = binary.LittleEndian.AppendUint16(b, get(&rows[i]))
		}
		return b
	}
	plain := header(frameColumns)
	for i := range rows {
		plain = binary.LittleEndian.AppendUint64(plain, rows[i].ID)
	}
	plain = u16(plain, func(r *flatRec) uint16 { return r.SrcN })
	plain = u16(plain, func(r *flatRec) uint16 { return r.SrcP })
	plain = u16(plain, func(r *flatRec) uint16 { return r.DstN })
	plain = u16(plain, func(r *flatRec) uint16 { return r.DstP })
	for i := range rows {
		plain = binary.LittleEndian.AppendUint32(plain, uint32(len(rows[i].Class)))
		plain = append(plain, rows[i].Class...)
	}
	for i := range rows {
		plain = binary.LittleEndian.AppendUint64(plain, uint64(rows[i].Dur))
	}

	// The same rows with every column encoding: delta, run-length,
	// dictionary, raw.
	packed := append(header(frameColumnsZ), ColEncDelta)
	prev := uint64(0)
	for i := range rows {
		d := int64(rows[i].ID - prev)
		packed = binary.AppendUvarint(packed, uint64(d<<1)^uint64(d>>63))
		prev = rows[i].ID
	}
	packed = append(packed, ColEncRLE, 3, 1) // SrcN
	packed = u16(append(packed, ColEncRaw), func(r *flatRec) uint16 { return r.SrcP })
	packed = append(packed, ColEncRLE, 3, 2)  // DstN
	packed = append(packed, ColEncRLE, 3, 80) // DstP
	packed = append(packed, ColEncDict, 2)
	packed = append(binary.LittleEndian.AppendUint32(packed, 7), "port:80"...)
	packed = binary.LittleEndian.AppendUint32(packed, 0)
	packed = append(packed, 2, 0, 1, 1) // two of entry 0, one of entry 1
	packed = append(packed, ColEncRaw)
	for i := range rows {
		packed = binary.LittleEndian.AppendUint64(packed, uint64(rows[i].Dur))
	}

	if got, _, err := p.AppendColumnsFrame(nil, cols); err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("StructColumns frames the rows as % x (err %v), the hand-built columns frame is % x", got, err, plain)
	}
	return map[string][][]byte{
		"records":            {def, record, record},
		"rows":               append([][]byte{def}, records...),
		"columns":            {def, plain},
		"compressed columns": {def, packed},
		"raw columns":        {def, rawZ},
		"unbound columns":    {up.Format().AppendDef(nil), unbound},
		"every opcode":       {ep.Format().AppendDef(nil), everyPlain, everyPacked},
		"mixed":              {def, record, rawZ, plain, packed, record},
	}
}

// unboundRec has flatRec's layout and a format no decoder registry knows.
type unboundRec flatRec

// corpusInputs returns the inputs of every committed fuzz corpus under
// dir, whatever target they were written for.
func corpusInputs(t *testing.T, dir string) [][]byte {
	files, err := filepath.Glob(filepath.Join(dir, "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus under %s (%v)", dir, err)
	}
	var out [][]byte
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			open, end := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
			if open < 0 || end < open {
				continue
			}
			if s, err := strconv.Unquote(line[open+1 : end]); err == nil {
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

// TestDecoderPathsAgree: a decoder over a buffered source (a page in
// memory, or one that trickles a few bytes per read) and one over a
// reader that offers only Read (a connection) are the same decoder — at
// every truncation of every golden frame and every committed fuzz input
// they yield identical records and identical errors: io.EOF on a frame
// boundary of a well-formed stream, io.ErrUnexpectedEOF inside a frame.
func TestDecoderPathsAgree(t *testing.T) {
	both := func(name string, b []byte, check func(n int, recs []*Record, err error)) {
		for n := 0; n <= len(b); n++ {
			want, wantErr := decodeAll(bytes.NewReader(b[:n]), fuzzRegistry(t))
			for src, r := range sources(b[:n]) {
				got, err := decodeAll(r, fuzzRegistry(t))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cut at %d/%d: %d records %s, %d in memory, or they differ", name, n, len(b), len(got), src, len(want))
				}
				if !sameErr(err, wantErr) {
					t.Fatalf("%s cut at %d/%d: err %v %s, %v in memory", name, n, len(b), err, src, wantErr)
				}
			}
			if check != nil {
				check(n, want, wantErr)
			}
		}
	}

	// decodeRows decodes a whole stream and lists the rows of its frames'
	// batches in order.
	decodeRows := func(stream []byte) (rows []any, recs []*Record) {
		recs, _ = decodeAll(bytes.NewReader(stream), fuzzRegistry(t))
		for _, rec := range recs {
			if rec.Value == nil {
				continue
			}
			batch := reflect.ValueOf(rec.Value)
			for i := 0; i < batch.Len(); i++ {
				rows = append(rows, batch.Index(i).Interface())
			}
		}
		return rows, recs
	}
	golden := goldenStreams(t)
	rows, rowRecs := decodeRows(bytes.Join(golden["rows"], nil))
	if len(rows) != 3 || len(rowRecs) != 3 {
		t.Fatalf("the rows as one-row frames decoded to %d records of %d rows, want 3 of 3", len(rowRecs), len(rows))
	}
	var every []any
	for _, r := range everyOpRows() {
		every = append(every, r)
	}
	wantRows := map[string][]any{
		"records":         {rows[0], rows[0]},
		"mixed":           append(append(append(append([]any{rows[0]}, rows...), rows...), rows...), rows[0]),
		"unbound columns": nil,
		"every opcode":    append(append([]any(nil), every...), every...),
	}
	for name, frames := range golden {
		boundary := map[int]bool{0: true}
		var stream []byte
		for _, f := range frames {
			stream = append(stream, f...)
			boundary[len(stream)] = true
		}
		both(name, stream, func(n int, recs []*Record, err error) {
			if want := map[bool]error{true: io.EOF, false: io.ErrUnexpectedEOF}[boundary[n]]; err != want {
				t.Fatalf("%s cut at %d/%d (frame boundary: %v): err = %v, want %v", name, n, len(stream), boundary[n], err, want)
			}
		})
		// Every frame is one record, and every batch frame of the bound
		// format says, row for row, what the one-row frames say.
		got, recs := decodeRows(stream)
		if len(recs) != len(frames)-1 {
			t.Fatalf("%s: %d frames after the definition decoded to %d records", name, len(frames)-1, len(recs))
		}
		want, ok := wantRows[name]
		if !ok {
			want = rows
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded rows %+v, want %+v", name, got, want)
		}
	}

	// A string whose bytes straddle an in-memory decoder's first window
	// edge — short enough to be interned, and too long to be — decodes
	// the same from every source.
	for _, size := range []int{internMaxLen - 4, internMaxLen + 36} {
		stream, rows := straddling(t, size)
		for src, r := range sources(stream) {
			recs, err := decodeAll(r, fuzzRegistry(t))
			if err != io.EOF || len(recs) != 1 || !reflect.DeepEqual(recs[0].Value, rows) {
				t.Fatalf("%d-byte string across the window edge %s: %d records, err %v", size, src, len(recs), err)
			}
		}
	}

	inputs := append(corpusInputs(t, "testdata"), corpusInputs(t, filepath.Join("..", "gpa", "testdata"))...)
	inputs = append(inputs, fuzzSeeds(t)...)
	for i, in := range inputs {
		both("corpus input "+strconv.Itoa(i), in, nil)
	}
}

// fuzzRegistry is the registry FuzzDecode decodes with, plus the golden
// streams' formats.
func fuzzRegistry(t *testing.T) *Registry {
	reg := NewRegistry()
	if _, err := reg.Register("fuzz.rec", fuzzRec{}); err != nil {
		t.Fatal(err)
	}
	reg.MustRegister("rec", flatRec{})
	reg.MustRegister("every", everyOp{})
	return reg
}

// TestDecoderReset: a reset decoder is a fresh one over its new source.
// It forgets the formats the previous stream defined, the bytes of it left
// unread and the row limit set for it, and it moves between a buffered
// and a bare source in either order. It keeps its string intern table,
// which is safe to carry from one stream to the next: the table holds
// only values — a string is the same whichever stream carried it — and it
// is bounded.
func TestDecoderReset(t *testing.T) {
	golden := goldenStreams(t)
	stream := bytes.Join(golden["columns"], nil) // a definition and a 3-row frame
	frame := golden["columns"][1]

	dec := NewDecoder(bytes.NewReader(stream), fuzzRegistry(t))
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	dec.Reset(bytes.NewReader(frame))
	if _, err := dec.Decode(); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("a frame of a format only the previous stream defined: err = %v, want ErrUnknownFormat", err)
	}

	dec.Reset(bytes.NewReader(stream))
	dec.LimitRows(1)
	if _, err := dec.Decode(); err == nil {
		t.Fatal("a 3-row frame decoded under a 1-row limit")
	}
	dec.Reset(bytes.NewReader(stream))
	if dec.maxRows != maxBatchLen {
		t.Fatalf("row limit after Reset = %d, want the frame limit %d", dec.maxRows, maxBatchLen)
	}
	rec, err := dec.Decode()
	if err != nil {
		t.Fatalf("a 3-row frame after Reset: %v", err)
	}
	class := rec.Value.([]flatRec)[0].Class
	dec.Reset(readOnly{bytes.NewReader(stream)})
	if rec, err = dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if again := rec.Value.([]flatRec)[0].Class; unsafe.StringData(again) != unsafe.StringData(class) {
		t.Fatalf("class %q after Reset is a new string, want the interned one", again)
	}

	// Every golden stream, read by a decoder that has just read another
	// stream — whole, or cut mid-frame so that its window holds bytes it
	// never decoded — over any kind of source, yields what a fresh decoder
	// yields.
	mixed := bytes.Join(golden["mixed"], nil)
	for name, frames := range golden {
		b := bytes.Join(frames, nil)
		want, wantErr := decodeAll(bytes.NewReader(b), fuzzRegistry(t))
		for _, before := range [][]byte{mixed, mixed[:len(mixed)/2]} {
			for first, r := range sources(before) {
				for second := range sources(b) {
					dec := NewDecoder(r, fuzzRegistry(t))
					drain(dec)
					dec.Reset(sources(b)[second])
					got, err := drain(dec)
					if !reflect.DeepEqual(got, want) || !sameErr(err, wantErr) {
						t.Fatalf("%s, %s after %d bytes %s: %d records, err %v; fresh: %d records, err %v",
							name, second, len(before), first, len(got), err, len(want), wantErr)
					}
					r = sources(before)[first]
				}
			}
		}
	}
}

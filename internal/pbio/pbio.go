// Package pbio is a self-describing binary record encoding in the spirit
// of the PBIO library the paper's dissemination daemon uses ("PBIO-based
// binary encodings"). Record formats are derived from Go structs by
// reflection and registered by name; a stream carries each format's
// descriptor once, before its first record, so any receiver can decode the
// stream without out-of-band schema exchange.
//
// Wire layout (all integers little-endian):
//
//	frame   := kind(1) payload
//	kind    := 0x01 (format definition) | 0x04 (columns) |
//	           0x05 (compressed columns, see columns.go)
//	formdef := id(u32) name(str) nfields(u16) { fname(str) fkind(u8) }*
//	columns := id(u32) count(u32) { field_i of every row }*nfields
//	str     := len(u32) bytes
//
// A columns frame carries a batch of records transposed: all rows'
// field 0, then all rows' field 1, and so on — the structure-of-arrays
// layout the hot path keeps in memory, so encoding is a straight copy per
// column and decoding can rebuild columnar batches without materializing
// rows. A single record is a one-row batch, and every frame decodes to
// one value. (Kinds 0x02, a single row, and 0x03, a row-major batch, are
// retired and refused.)
//
// Strings and byte slices are length-prefixed; all other kinds are fixed
// width. The encoding is compact and allocation-light — the property the
// paper relies on for low-overhead event shipping (see the encoding
// ablation benchmark).
package pbio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"time"
	"unsafe"
)

// Kind identifies a field's wire type.
type Kind uint8

// Field kinds. Durations travel as signed 64-bit nanoseconds.
const (
	KindBool Kind = iota + 1
	KindInt8
	KindInt16
	KindInt32
	KindInt64
	KindUint8
	KindUint16
	KindUint32
	KindUint64
	KindFloat32
	KindFloat64
	KindString
	KindBytes
	KindDuration
)

var kindNames = [...]string{
	KindBool: "bool", KindInt8: "int8", KindInt16: "int16", KindInt32: "int32",
	KindInt64: "int64", KindUint8: "uint8", KindUint16: "uint16",
	KindUint32: "uint32", KindUint64: "uint64", KindFloat32: "float32",
	KindFloat64: "float64", KindString: "string", KindBytes: "bytes",
	KindDuration: "duration",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Field describes one record field.
type Field struct {
	Name string
	Kind Kind
}

// Format is a named record layout.
type Format struct {
	ID     uint32
	Name   string
	Fields []Field
	// goType, when known, lets the decoder materialize typed values.
	goType reflect.Type
	// def is a registered format's definition frame after its ID, which
	// a decoder compares an incoming definition with.
	def []byte
}

// Errors returned by the package.
var (
	ErrUnknownFormat = errors.New("pbio: unknown format")
	ErrBadFrame      = errors.New("pbio: malformed frame")
)

// Registry maps format names and Go types to formats. Registration and
// binding happen at program initialization; lookups afterwards are
// read-only and safe for concurrent use.
type Registry struct {
	byName      map[string]*Format
	plans       map[reflect.Type]*Plan
	colDecoders map[string]ColumnDecoder
	nextID      uint32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:      make(map[string]*Format),
		plans:       make(map[reflect.Type]*Plan),
		colDecoders: make(map[string]ColumnDecoder),
		nextID:      1,
	}
}

// Register derives a format from sample's struct type and binds it to
// name. Exported fields of supported kinds are included in declaration
// order, flattened depth-first through nested structs (a nested field is
// named by its dotted path, e.g. "Flow.Src.Port"); unsupported field
// types cause an error. The field walk is resolved once, here, into the
// type's encode plan.
func (r *Registry) Register(name string, sample any) (*Format, error) {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("pbio: register %q: sample must be a struct, got %T", name, sample)
	}
	if _, ok := r.byName[name]; ok {
		return nil, fmt.Errorf("pbio: register: format %q already registered", name)
	}
	f := &Format{ID: r.nextID, Name: name, goType: t}
	p := &Plan{f: f}
	if err := p.flatten(t, "", 0); err != nil {
		return nil, fmt.Errorf("pbio: register %q: %w", name, err)
	}
	// Decoders reject zero-field formats (they would make columns frames
	// free to expand); refuse to produce one.
	if len(f.Fields) == 0 {
		return nil, fmt.Errorf("pbio: register %q: struct has no encodable exported fields", name)
	}
	f.def = f.AppendDef(nil)[5:]
	r.nextID++
	r.byName[name] = f
	r.plans[t] = p
	return f, nil
}

// MustRegister is Register, panicking on error (program-initialization use).
func (r *Registry) MustRegister(name string, sample any) *Format {
	f, err := r.Register(name, sample)
	if err != nil {
		panic(err)
	}
	return f
}

// Lookup returns the format registered under name, or nil.
func (r *Registry) Lookup(name string) *Format { return r.byName[name] }

// Plan is the cached encode plan of a registered struct type: its
// exported fields — flattened through nested structs in declaration
// order — each resolved at registration to a byte offset plus a load
// opcode, so the per-record encode loop is offset arithmetic and copies,
// no reflection, and decoding stores through the same table. A rich
// in-memory type (e.g. a record with a nested flow key) thereby travels
// in a flat wire layout with no intermediate conversion struct.
type Plan struct {
	f      *Format
	fields []planField
}

// planField is one wire field's source: where it sits in the struct and
// how to load it.
type planField struct {
	off uintptr
	op  uint8
}

// Load opcodes: how a plan field is read from its struct offset. They are
// finer-grained than Kind because the in-memory width can differ from the
// wire width (platform int/uint encode as 64-bit).
const (
	opBool = iota + 1
	opI8
	opI16
	opI32
	opI64 // also time.Duration
	opInt
	opU8
	opU16
	opU32
	opU64
	opUint
	opF32
	opF64
	opStr
	opBytes
)

// opOf resolves a struct field type to its load opcode. The type has
// already passed kindOf, so every case is covered.
func opOf(t reflect.Type) uint8 {
	switch t.Kind() {
	case reflect.Bool:
		return opBool
	case reflect.Int8:
		return opI8
	case reflect.Int16:
		return opI16
	case reflect.Int32:
		return opI32
	case reflect.Int64:
		return opI64 // time.Duration lands here
	case reflect.Int:
		return opInt
	case reflect.Uint8:
		return opU8
	case reflect.Uint16:
		return opU16
	case reflect.Uint32:
		return opU32
	case reflect.Uint64:
		return opU64
	case reflect.Uint:
		return opUint
	case reflect.Float32:
		return opF32
	case reflect.Float64:
		return opF64
	case reflect.String:
		return opStr
	case reflect.Slice:
		return opBytes
	}
	return 0
}

// flatten walks t's exported fields depth-first, recursing into nested
// structs (time.Duration is a leaf). Each leaf appends its wire
// descriptor to the plan's format and its load step to the plan; prefix
// and base carry the enclosing struct's name path and byte offset.
func (p *Plan) flatten(t reflect.Type, prefix string, base uintptr) error {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		if k, ok := kindOf(sf.Type); ok {
			p.f.Fields = append(p.f.Fields, Field{Name: prefix + sf.Name, Kind: k})
			p.fields = append(p.fields, planField{off: base + sf.Offset, op: opOf(sf.Type)})
			continue
		}
		if sf.Type.Kind() != reflect.Struct {
			return fmt.Errorf("field %s has unsupported type %s", prefix+sf.Name, sf.Type)
		}
		if err := p.flatten(sf.Type, prefix+sf.Name+".", base+sf.Offset); err != nil {
			return err
		}
	}
	return nil
}

// PlanFor returns the encode plan of a registered struct type, or nil.
func (r *Registry) PlanFor(t reflect.Type) *Plan {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return r.plans[t]
}

// Format returns the wire format the plan encodes into.
func (p *Plan) Format() *Format { return p.f }

// appendFields appends the given planned fields of the struct at base in
// wire order: one offset load and copy per field, resolved at
// registration.
//
//sysprof:nonblocking
func appendFields(buf []byte, base unsafe.Pointer, fields []planField) []byte {
	for i := range fields {
		pf := &fields[i]
		fp := unsafe.Add(base, pf.off)
		switch pf.op {
		case opBool:
			if *(*bool)(fp) {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case opI8:
			buf = append(buf, byte(*(*int8)(fp)))
		case opI16:
			buf = binary.LittleEndian.AppendUint16(buf, uint16(*(*int16)(fp)))
		case opI32:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(*(*int32)(fp)))
		case opI64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(*(*int64)(fp)))
		case opInt:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(*(*int)(fp))))
		case opU8:
			buf = append(buf, *(*uint8)(fp))
		case opU16:
			buf = binary.LittleEndian.AppendUint16(buf, *(*uint16)(fp))
		case opU32:
			buf = binary.LittleEndian.AppendUint32(buf, *(*uint32)(fp))
		case opU64:
			buf = binary.LittleEndian.AppendUint64(buf, *(*uint64)(fp))
		case opUint:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(*(*uint)(fp)))
		case opF32:
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(*(*float32)(fp)))
		case opF64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*(*float64)(fp)))
		case opStr:
			buf = appendString(buf, *(*string)(fp))
		case opBytes:
			s := *(*[]byte)(fp)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

func kindOf(t reflect.Type) (Kind, bool) {
	if t == reflect.TypeOf(time.Duration(0)) {
		return KindDuration, true
	}
	switch t.Kind() {
	case reflect.Bool:
		return KindBool, true
	case reflect.Int8:
		return KindInt8, true
	case reflect.Int16:
		return KindInt16, true
	case reflect.Int32:
		return KindInt32, true
	case reflect.Int64, reflect.Int:
		return KindInt64, true
	case reflect.Uint8:
		return KindUint8, true
	case reflect.Uint16:
		return KindUint16, true
	case reflect.Uint32:
		return KindUint32, true
	case reflect.Uint64, reflect.Uint:
		return KindUint64, true
	case reflect.Float32:
		return KindFloat32, true
	case reflect.Float64:
		return KindFloat64, true
	case reflect.String:
		return KindString, true
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return KindBytes, true
		}
	}
	return 0, false
}

const (
	frameFormat   = 0x01
	frameColumns  = 0x04
	frameColumnsZ = 0x05

	// maxFieldLen bounds length-prefixed fields (strings/bytes) so a
	// corrupted or hostile stream cannot force huge allocations.
	maxFieldLen = 1 << 24

	// maxBatchLen bounds the row count of a columns frame for the same
	// reason.
	maxBatchLen = 1 << 20

	// maxFormatFields bounds the field count a format-definition frame
	// may declare; real formats have tens of fields, and an absurd count
	// multiplies per-record decode cost.
	maxFormatFields = 4096

	// lengthPrefixChunk caps the allocation made up front for a
	// length-prefixed field: the prefix is untrusted, so memory grows
	// only as the stream actually delivers bytes.
	lengthPrefixChunk = 64 << 10
)

// AppendDef appends the format's definition frame to buf. A stream must
// carry the definition before the format's first record; the frame
// builders (Plan.Append*) leave that to whoever writes the stream.
func (f *Format) AppendDef(buf []byte) []byte {
	buf = append(buf, frameFormat)
	buf = binary.LittleEndian.AppendUint32(buf, f.ID)
	buf = appendString(buf, f.Name)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Fields)))
	for _, fld := range f.Fields {
		buf = appendString(buf, fld.Name)
		buf = append(buf, byte(fld.Kind))
	}
	return buf
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// Record is one decoded frame: its format name and its rows. When the
// decoder's registry knows the format's Go type T, Value holds the frame's
// batch — the bound ColumnDecoder's result, or else a []T of every row;
// for a format with no matching local type it is nil.
type Record struct {
	Format string
	Value  any
}

// Window capacities. A buffered source fills a window of
// bufferedWindow bytes per read; a bare reader's window only ever holds
// the one fixed-width value (at most 8 bytes) being read.
const (
	bufferedWindow = 8 << 10
	bareWindow     = 8
)

// Decoder reads self-describing records.
//
// Every read goes through a byte window. When the source is buffered —
// it offers io.ByteReader, as a bytes.Reader over a page in memory or the
// bufio.Reader over a file does — the window is refilled a few KB at a
// time, so the decoder may read the source past the frame it returns and
// decodes columns straight out of memory. A bare reader (a connection) is
// never read past the frame: the window asks it for exactly the bytes the
// next value needs, so whoever shares the reader with the decoder stays
// in step with it.
type Decoder struct {
	r        io.Reader
	buffered bool
	// win[pos:] are the bytes read from r and not yet decoded.
	win     []byte
	pos     int
	reg     *Registry
	formats map[uint32]*Format
	// cr is the column reader every columns frame is decoded through.
	cr ColumnReader
	// maxRows bounds the row count a columns frame may declare.
	maxRows uint32
}

// NewDecoder returns a decoder reading from r. reg may be nil; when given,
// formats whose names match registered ones decode into typed values.
func NewDecoder(r io.Reader, reg *Registry) *Decoder {
	_, buffered := r.(io.ByteReader)
	d := &Decoder{r: r, buffered: buffered, reg: reg, formats: make(map[uint32]*Format), maxRows: maxBatchLen}
	d.cr.d = d
	return d
}

// LimitRows lowers the row count the next columns frames may declare
// (never above the package-wide frame limit). A run-length or
// dictionary column expands rows out of a few bytes, so a consumer that
// knows how many rows it is owed sets that here and a frame claiming more
// is refused before any of it is materialized.
func (d *Decoder) LimitRows(n int) {
	d.maxRows = uint32(max(0, min(n, maxBatchLen)))
}

// Decode reads the next columns frame as one record, transparently
// consuming format frames before it. It returns io.EOF at clean end of
// stream.
func (d *Decoder) Decode() (*Record, error) { return d.DecodeInto(nil) }

// DecodeInto is Decode with a destination for a frame whose format is
// bound to a ColumnDecoder: the decoder is handed into (nil: make a new
// batch) and appends the frame's rows to it, so a consumer that recycles
// its batches decodes without allocating them. Any other frame decodes
// as Decode decodes it.
func (d *Decoder) DecodeInto(into any) (*Record, error) {
	for {
		kind, err := d.readByte()
		if err != nil {
			return nil, err // io.EOF passes through
		}
		switch kind {
		case frameFormat:
			if err := d.readFormat(); err != nil {
				return nil, err
			}
		case frameColumns:
			return d.readColumns(false, into)
		case frameColumnsZ:
			return d.readColumns(true, into)
		default:
			return nil, fmt.Errorf("%w: frame kind 0x%02x", ErrBadFrame, kind)
		}
	}
}

func (d *Decoder) readFormat() error {
	id, err := d.readUint32()
	if err != nil {
		return badEOF(err)
	}
	if f := d.knownFormat(); f != nil {
		d.formats[id] = f
		return nil
	}
	name, err := d.readString()
	if err != nil {
		return badEOF(err)
	}
	nf, err := d.readUint16()
	if err != nil {
		return badEOF(err)
	}
	// A zero-field format would let a columns frame expand into up to
	// maxBatchLen records without consuming any input bytes.
	if nf == 0 {
		return fmt.Errorf("%w: format %q declares no fields", ErrBadFrame, name)
	}
	if int(nf) > maxFormatFields {
		return fmt.Errorf("%w: format %q declares %d fields (limit %d)", ErrBadFrame, name, nf, maxFormatFields)
	}
	f := &Format{ID: id, Name: name}
	for i := 0; i < int(nf); i++ {
		fname, err := d.readString()
		if err != nil {
			return badEOF(err)
		}
		fk, err := d.readByte()
		if err != nil {
			return badEOF(err)
		}
		f.Fields = append(f.Fields, Field{Name: fname, Kind: Kind(fk)})
	}
	// Bind to a local Go type when the registry has a same-name format
	// with matching fields.
	if d.reg != nil {
		if local := d.reg.byName[name]; local != nil && fieldsMatch(local.Fields, f.Fields) {
			f.goType = local.goType
		}
	}
	d.formats[id] = f
	return nil
}

// knownFormat consumes the rest of a definition frame when it is byte for
// byte the definition of a format registered under the same name, and
// returns that format; otherwise it consumes nothing and returns nil. A
// stream that re-sends its definitions (every history page does) thereby
// binds them without reading their field names again. It needs the whole
// definition in the window, so it only looks at a buffered source.
func (d *Decoder) knownFormat() *Format {
	if d.reg == nil || !d.buffered || d.fill(4) != nil {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(d.win[d.pos:]))
	if n > bufferedWindow-4 || d.fill(4+n) != nil {
		return nil
	}
	local := d.reg.byName[string(d.win[d.pos+4:d.pos+4+n])]
	if local == nil || len(local.def) > bufferedWindow || d.fill(len(local.def)) != nil ||
		!bytes.Equal(d.win[d.pos:d.pos+len(local.def)], local.def) {
		return nil
	}
	d.pos += len(local.def)
	return local
}

func fieldsMatch(a, b []Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fill makes at least n bytes (n no more than the window holds) available
// at win[pos:]. A buffered source is read for as much as the window
// takes; a bare reader for exactly the bytes missing. As with
// io.ReadFull, the error is io.EOF only if the window was empty and the
// source ended at once.
func (d *Decoder) fill(n int) error {
	have := len(d.win) - d.pos
	if have >= n {
		return nil
	}
	limit, size := n, bareWindow
	if d.buffered {
		limit, size = bufferedWindow, bufferedWindow
	}
	if d.win == nil {
		d.win = make([]byte, 0, size)
	}
	if have > 0 {
		copy(d.win, d.win[d.pos:])
	}
	got, err := io.ReadAtLeast(d.r, d.win[have:limit], n-have)
	d.win, d.pos = d.win[:have+got], 0
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (d *Decoder) readByte() (byte, error) {
	if d.pos == len(d.win) {
		if err := d.fill(1); err != nil {
			return 0, err
		}
	}
	d.pos++
	return d.win[d.pos-1], nil
}

func (d *Decoder) readUint16() (uint16, error) {
	if err := d.fill(2); err != nil {
		return 0, err
	}
	d.pos += 2
	return binary.LittleEndian.Uint16(d.win[d.pos-2:]), nil
}

func (d *Decoder) readUint32() (uint32, error) {
	if err := d.fill(4); err != nil {
		return 0, err
	}
	d.pos += 4
	return binary.LittleEndian.Uint32(d.win[d.pos-4:]), nil
}

// readUvarint reads an unsigned LEB128 varint, rejecting encodings that
// run past 10 bytes or overflow 64 bits — a hostile stream must not be
// able to keep the decoder spinning on continuation bits. The value is
// attacker-controlled: every consumer must bound it before sizing an
// allocation. A one-byte varint in the window is read inline; a longer
// one decodes in place when the window holds a whole varint's worth, and
// otherwise (near the end of a window, and always for a bare reader) a
// byte at a time.
func (d *Decoder) readUvarint() (uint64, error) {
	if d.pos < len(d.win) && d.win[d.pos] < 0x80 {
		d.pos++
		return uint64(d.win[d.pos-1]), nil
	}
	return d.readUvarintSlow()
}

func (d *Decoder) readUvarintSlow() (uint64, error) {
	if b := d.win[d.pos:]; len(b) >= binary.MaxVarintLen64 {
		x, n := binary.Uvarint(b)
		switch {
		case n == -binary.MaxVarintLen64:
			return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrBadFrame)
		case n <= 0:
			return 0, fmt.Errorf("%w: varint longer than %d bytes", ErrBadFrame, binary.MaxVarintLen64)
		}
		d.pos += n
		return x, nil
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.pos == len(d.win) {
			if err := d.fill(1); err != nil {
				return 0, err
			}
		}
		b := d.win[d.pos]
		d.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrBadFrame)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: varint longer than %d bytes", ErrBadFrame, binary.MaxVarintLen64)
}

// readString reads a length-prefixed string into one allocation: the
// string itself, copied out of the window when the window holds it, else
// made from the bytes readLengthPrefixed reads, which nothing else
// refers to.
func (d *Decoder) readString() (string, error) {
	n, err := d.readUint32()
	if err != nil {
		return "", err
	}
	if n > maxFieldLen {
		return "", fmt.Errorf("%w: string length %d exceeds limit", ErrBadFrame, n)
	}
	if int(n) <= len(d.win)-d.pos {
		d.pos += int(n)
		return string(d.win[d.pos-int(n) : d.pos]), nil
	}
	buf, err := d.readLengthPrefixed(n)
	if err != nil {
		return "", err
	}
	return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
}

// readLengthPrefixed reads n bytes announced by an untrusted length
// prefix: what the window holds, then the rest straight from the source
// in one read per lengthPrefixChunk. Allocation is capped at
// lengthPrefixChunk up front and grows only as the stream actually
// delivers data, so a tiny frame claiming a near-maxFieldLen length
// cannot balloon memory before truncation is detected.
func (d *Decoder) readLengthPrefixed(n uint32) ([]byte, error) {
	out := make([]byte, 0, min(int(n), lengthPrefixChunk))
	k := min(int(n), len(d.win)-d.pos)
	out = append(out, d.win[d.pos:d.pos+k]...)
	d.pos += k
	for len(out) < int(n) {
		step := min(int(n)-len(out), lengthPrefixChunk)
		out = slices.Grow(out, step)
		got, err := io.ReadFull(d.r, out[len(out):len(out)+step])
		out = out[:len(out)+got]
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// badEOF upgrades unexpected mid-frame EOFs so callers can distinguish a
// clean end of stream (io.EOF from Decode) from truncation.
func badEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

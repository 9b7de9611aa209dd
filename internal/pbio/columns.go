package pbio

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"unsafe"
)

// ColumnAppender is the contract a structure-of-arrays batch implements
// to encode through a plan without materializing rows. AppendColumn must
// emit wire field `field`'s value for every row (the exact bytes the
// format's kind dictates).
type ColumnAppender interface {
	// Rows returns the number of rows in the batch.
	Rows() int
	// NumWireFields returns how many wire fields each row flattens into.
	NumWireFields() int
	// AppendColumn appends field's value for rows 0..Rows()-1.
	AppendColumn(buf []byte, field int) []byte
}

// Per-column encodings carried by the compressed columnar (0x05) frame.
// Each column opens with one of these tag bytes followed by its payload;
// the payload is self-delimiting because the frame's row count fixes how
// many values every column holds.
const (
	// ColEncRaw: the column's bytes exactly as a 0x04 frame would carry
	// them — the encoder's escape hatch when nothing else wins.
	ColEncRaw = 0x00
	// ColEncDelta: one zigzag varint per row, each the delta from the
	// previous row's value (first row deltas from zero). Arithmetic is
	// mod 2^64, so any integer width round-trips exactly.
	ColEncDelta = 0x01
	// ColEncRLE: (run-length uvarint, value uvarint) pairs whose run
	// lengths sum to the row count.
	ColEncRLE = 0x02
	// ColEncDict: a uvarint dictionary size, that many length-prefixed
	// strings, then (run-length uvarint, dictionary-index uvarint) pairs
	// whose run lengths sum to the row count. String columns only.
	ColEncDict = 0x03
)

// CompressedColumnAppender extends ColumnAppender with per-column
// compressed emission for 0x05 frames. AppendCompressedColumn must open
// with a ColEnc* tag byte and emit field's value for every row in that
// encoding; the encoder is free to pick ColEncRaw per column whenever
// compression would not pay.
type CompressedColumnAppender interface {
	ColumnAppender
	AppendCompressedColumn(buf []byte, field int) []byte
}

// AppendColumnsFrame appends one columnar (0x04) frame holding every row
// of cols and returns the extended buffer plus the row count. An empty
// batch appends nothing. The columnar layout means encoding is one
// contiguous sweep per column — no per-row field dispatch.
func (p *Plan) AppendColumnsFrame(buf []byte, cols ColumnAppender) ([]byte, int, error) {
	buf, n, err := p.columnsHeader(buf, cols, frameColumns, "columns")
	if err != nil || n == 0 {
		return buf, n, err
	}
	for field := 0; field < len(p.f.Fields); field++ {
		buf = cols.AppendColumn(buf, field)
	}
	return buf, n, nil
}

// AppendCompressedColumnsFrame appends one compressed columnar (0x05)
// frame. Layout matches 0x04 — kind, format id, row count — except every
// column opens with a ColEnc* tag and carries that encoding's payload.
// Only subscribers that negotiated the compressed-columns handshake flag
// can decode these frames.
func (p *Plan) AppendCompressedColumnsFrame(buf []byte, cols CompressedColumnAppender) ([]byte, int, error) {
	buf, n, err := p.columnsHeader(buf, cols, frameColumnsZ, "compressed columns")
	if err != nil || n == 0 {
		return buf, n, err
	}
	for field := 0; field < len(p.f.Fields); field++ {
		buf = cols.AppendCompressedColumn(buf, field)
	}
	return buf, n, nil
}

// structColumns is StructColumns's view: column `field` is the plan's
// load of that one field, strided over the rows.
type structColumns[T any] struct {
	fields []planField
	rows   []T
}

// StructColumns returns reg's plan for T and rows viewed as that plan's
// columns, so a row-shaped batch (a flush's handful of aggregate deltas)
// travels in the same 0x04/0x05 frames as a native columnar one; a
// compressed frame carries each column ColEncRaw. A receiver with no
// ColumnDecoder bound for the format gets the frame back as one []T
// through its own plan. The plan is nil unless T itself is a registered
// struct type.
func StructColumns[T any](reg *Registry, rows []T) (*Plan, CompressedColumnAppender) {
	p := reg.plans[reflect.TypeFor[T]()]
	if p == nil {
		return nil, nil
	}
	return p, structColumns[T]{p.fields, rows}
}

func (c structColumns[T]) Rows() int          { return len(c.rows) }
func (c structColumns[T]) NumWireFields() int { return len(c.fields) }

func (c structColumns[T]) AppendColumn(buf []byte, field int) []byte {
	one := c.fields[field : field+1]
	for i := range c.rows {
		buf = appendFields(buf, unsafe.Pointer(&c.rows[i]), one)
	}
	return buf
}

func (c structColumns[T]) AppendCompressedColumn(buf []byte, field int) []byte {
	return c.AppendColumn(append(buf, ColEncRaw), field)
}

func (p *Plan) columnsHeader(buf []byte, cols ColumnAppender, kind byte, what string) ([]byte, int, error) {
	n := cols.Rows()
	if n == 0 {
		return buf, 0, nil
	}
	if n > maxBatchLen {
		return buf, 0, fmt.Errorf("pbio: %s frame: %d rows exceeds batch limit %d", what, n, maxBatchLen)
	}
	if nf := cols.NumWireFields(); nf != len(p.f.Fields) {
		return buf, 0, fmt.Errorf("pbio: %s frame: batch has %d wire fields, format %q has %d",
			what, nf, p.f.Name, len(p.f.Fields))
	}
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, p.f.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	return buf, n, nil
}

// ColumnDecoder rebuilds a typed columnar batch from a columnar frame's
// payload. It must read each of the format's columns once, in field
// order, through the ColumnReader — the reader is a window onto the
// stream, so skipping or repeating a column desynchronizes it. into is
// what the caller of Decoder.DecodeInto handed in (nil from Decode): a
// batch of the decoder's own type to append the frame's rows to, or nil
// for a new one. The returned batch becomes the decoded Record's Value.
type ColumnDecoder func(cr *ColumnReader, rows int, into any) (any, error)

// BindColumnDecoder registers a typed decoder for columnar frames of the
// named format, in place of the []T its plan would decode. The decoder
// only runs when the incoming format's fields match the locally
// registered ones; a mismatched frame decodes to no value.
func (r *Registry) BindColumnDecoder(name string, cd ColumnDecoder) {
	r.colDecoders[name] = cd
}

// MaxColumnReserve caps how many rows a ColumnDecoder should preallocate
// from the wire-supplied count before growing incrementally: the count
// is untrusted until the stream actually delivers the bytes.
const MaxColumnReserve = 4096

// ColumnReader reads a columnar frame's payload a column at a time for
// ColumnDecoder implementations. Each read decodes one whole column —
// every row's value of the next field — in one loop per encoding
// straight into the caller's typed slice: fixed-width values out of the
// decoder's window, and, in a compressed 0x05 frame, the column's ColEnc*
// tag first and then its deltas, runs or dictionary. A ColumnDecoder is
// therefore the same for both frame kinds. A read's error is returned as
// the source gave it; the decoder reports a stream that ends inside the
// frame as io.ErrUnexpectedEOF.
type ColumnReader struct {
	d      *Decoder
	fields []Field // the frame's format, one entry per column
	col    int     // the next column
	rows   int
	z      bool // compressed (0x05): every column opens with a tag

	u64  []uint64 // Uint64s' column, reused
	dict []string // a dictionary-coded column's entries, reused
	strs []string // readRows' and skip's string column, reused
}

// Integer lists the in-memory types an integer column decodes into. A
// value wider than its type is truncated, as a conversion truncates it.
type Integer interface {
	~uint8 | ~int8 | ~uint16 | ~int16 | ~uint32 | ~int32 | ~uint64 | ~int64 | ~int | ~uint
}

// width is the fixed wire width of a value of kind k; 0 for the
// length-prefixed kinds and for a kind the package does not know.
func width(k Kind) int {
	switch k {
	case KindBool, KindInt8, KindUint8:
		return 1
	case KindInt16, KindUint16:
		return 2
	case KindInt32, KindUint32, KindFloat32:
		return 4
	case KindInt64, KindUint64, KindFloat64, KindDuration:
		return 8
	}
	return 0
}

// begin starts the frame's next column: it returns the column's wire
// kind and its encoding, read from the column's tag in a compressed
// frame and ColEncRaw in a plain one.
func (cr *ColumnReader) begin() (Kind, byte, error) {
	if cr.col == len(cr.fields) {
		return 0, 0, fmt.Errorf("%w: column %d of a %d-field format", ErrBadFrame, cr.col+1, len(cr.fields))
	}
	k := cr.fields[cr.col].Kind
	cr.col++
	if !cr.z {
		return k, ColEncRaw, nil
	}
	enc, err := cr.d.readByte()
	if err != nil {
		return 0, 0, err
	}
	if enc > ColEncDict {
		return 0, 0, fmt.Errorf("%w: column encoding 0x%02x", ErrBadFrame, enc)
	}
	return k, enc, nil
}

// AppendInts decodes the frame's next column, a fixed-width field, onto
// dst: one value per row, read as its wire width or through the
// column's delta or run-length code. dst is grown by at most
// MaxColumnReserve rows up front and past that as the stream delivers
// values, never ahead of them by more than a run.
func AppendInts[T Integer](cr *ColumnReader, dst []T) ([]T, error) {
	k, enc, err := cr.begin()
	if err != nil {
		return dst, err
	}
	w := width(k)
	if w == 0 {
		return dst, fmt.Errorf("%w: %v column read as integers", ErrBadFrame, k)
	}
	d := cr.d
	dst = slices.Grow(dst, min(cr.rows, MaxColumnReserve))
	switch enc {
	case ColEncRaw:
		// Every value the window holds at once, then a refill: a bare
		// reader's window holds exactly the one value it was asked for.
		for n := cr.rows; n > 0; {
			if err := d.fill(w); err != nil {
				return dst, err
			}
			b := d.win[d.pos:]
			var m int
			switch w {
			case 1:
				m = min(n, len(b))
				for _, v := range b[:m] {
					dst = append(dst, T(v))
				}
			case 2:
				m = min(n, len(b)/2)
				for i := 0; i < m; i++ {
					dst = append(dst, T(binary.LittleEndian.Uint16(b[2*i:])))
				}
			case 4:
				m = min(n, len(b)/4)
				for i := 0; i < m; i++ {
					dst = append(dst, T(binary.LittleEndian.Uint32(b[4*i:])))
				}
			default:
				m = min(n, len(b)/8)
				for i := 0; i < m; i++ {
					dst = append(dst, T(binary.LittleEndian.Uint64(b[8*i:])))
				}
			}
			d.pos += m * w
			n -= m
		}
	case ColEncDelta:
		var prev uint64
		for n := cr.rows; n > 0; n-- {
			// In place while the window holds a whole varint's worth;
			// readUvarint past that, and for what it refuses.
			if len(d.win)-d.pos >= binary.MaxVarintLen64 {
				b := d.win[d.pos:]
				for ; n > 0 && len(b) >= binary.MaxVarintLen64; n-- {
					uv, k := binary.Uvarint(b)
					if k <= 0 {
						break
					}
					b = b[k:]
					prev += uint64(int64(uv>>1) ^ -int64(uv&1))
					dst = append(dst, T(prev))
				}
				d.pos = len(d.win) - len(b)
				if n == 0 {
					break
				}
			}
			uv, err := d.readUvarint()
			if err != nil {
				return dst, err
			}
			prev += uint64(int64(uv>>1) ^ -int64(uv&1))
			dst = append(dst, T(prev))
		}
	case ColEncRLE:
		for n := cr.rows; n > 0; {
			run, v, err := cr.run(n)
			if err != nil {
				return dst, err
			}
			for i := uint64(0); i < run; i++ {
				dst = append(dst, T(v))
			}
			n -= int(run)
		}
	default:
		return dst, fmt.Errorf("%w: dictionary-encoded integer column", ErrBadFrame)
	}
	return dst, nil
}

// run reads one (run length, value) pair of a run-coded column with left
// values still to come.
func (cr *ColumnReader) run(left int) (uint64, uint64, error) {
	run, err := cr.d.readUvarint()
	if err != nil {
		return 0, 0, err
	}
	if run == 0 || run > uint64(left) {
		return 0, 0, fmt.Errorf("%w: run of %d values with %d column values remaining", ErrBadFrame, run, left)
	}
	v, err := cr.d.readUvarint()
	if err != nil {
		return 0, 0, err
	}
	return run, v, nil
}

// Uint64s decodes the frame's next column, a fixed-width field, into a
// slice the reader reuses: valid until the next Uint64s call.
func (cr *ColumnReader) Uint64s() ([]uint64, error) {
	var err error
	cr.u64, err = AppendInts(cr, cr.u64[:0])
	return cr.u64, err
}

// AppendStrings decodes the frame's next column, a string field, onto
// dst: one allocation per raw value, and one per dictionary entry of a
// dictionary-coded column, whose rows share their entries.
func (cr *ColumnReader) AppendStrings(dst []string) ([]string, error) {
	k, enc, err := cr.begin()
	if err != nil {
		return dst, err
	}
	if k != KindString {
		return dst, fmt.Errorf("%w: %v column read as strings", ErrBadFrame, k)
	}
	d := cr.d
	dst = slices.Grow(dst, min(cr.rows, MaxColumnReserve))
	switch enc {
	case ColEncRaw:
		for n := cr.rows; n > 0; n-- {
			s, err := d.readString()
			if err != nil {
				return dst, err
			}
			dst = append(dst, s)
		}
	case ColEncDict:
		cnt, err := d.readUvarint()
		if err != nil {
			return dst, err
		}
		if cnt > uint64(cr.rows) {
			return dst, fmt.Errorf("%w: column dictionary of %d entries for %d rows", ErrBadFrame, cnt, cr.rows)
		}
		dict := cr.dict[:0]
		for ; cnt > 0; cnt-- {
			s, err := d.readString()
			if err != nil {
				return dst, err
			}
			dict = append(dict, s)
		}
		cr.dict = dict
		for n := cr.rows; n > 0; {
			run, idx, err := cr.run(n)
			if err != nil {
				return dst, err
			}
			if idx >= uint64(len(dict)) {
				return dst, fmt.Errorf("%w: dictionary index %d of %d entries", ErrBadFrame, idx, len(dict))
			}
			for i := uint64(0); i < run; i++ {
				dst = append(dst, dict[idx])
			}
			n -= int(run)
		}
	default:
		return dst, fmt.Errorf("%w: string column encoding 0x%02x", ErrBadFrame, enc)
	}
	return dst, nil
}

// appendBytes decodes the frame's next column, a bytes field, onto dst.
// A compressed frame carries such a column raw.
func (cr *ColumnReader) appendBytes(dst [][]byte) ([][]byte, error) {
	k, enc, err := cr.begin()
	if err != nil {
		return dst, err
	}
	if k != KindBytes || enc != ColEncRaw {
		return dst, fmt.Errorf("%w: %v column encoding 0x%02x read as bytes", ErrBadFrame, k, enc)
	}
	for n := cr.rows; n > 0; n-- {
		size, err := cr.d.readUint32()
		if err != nil {
			return dst, err
		}
		if size > maxFieldLen {
			return dst, fmt.Errorf("%w: bytes field length %d exceeds limit", ErrBadFrame, size)
		}
		b, err := cr.d.readLengthPrefixed(size)
		if err != nil {
			return dst, err
		}
		dst = append(dst, b)
	}
	return dst, nil
}

// skip decodes the frame's next column and drops it: how a frame whose
// format has no local type is consumed.
func (cr *ColumnReader) skip() (err error) {
	switch k := cr.fields[cr.col].Kind; {
	case k == KindString:
		_, err = cr.AppendStrings(cr.strs[:0])
	case k == KindBytes:
		_, err = cr.appendBytes(nil)
	case width(k) > 0:
		_, err = cr.Uint64s()
	default:
		err = fmt.Errorf("%w: field kind %d", ErrBadFrame, k)
	}
	return err
}

// readRows decodes a frame of n rows into one []T through T's plan, a
// column at a time: the first column makes the rows — as many as the
// stream delivered — and each column is stored at its plan offset, the
// inverse of appendFields.
func (cr *ColumnReader) readRows(p *Plan, n int) (any, error) {
	size := p.f.goType.Size()
	var rows reflect.Value
	var base unsafe.Pointer
	for c, pf := range p.fields {
		var ints []uint64
		var blobs [][]byte
		var err error
		switch pf.op {
		case opStr:
			cr.strs, err = cr.AppendStrings(cr.strs[:0])
		case opBytes:
			blobs, err = cr.appendBytes(nil)
		default:
			ints, err = cr.Uint64s()
		}
		if err != nil {
			return nil, err
		}
		if c == 0 {
			rows = reflect.MakeSlice(reflect.SliceOf(p.f.goType), n, n)
			base = rows.UnsafePointer()
		}
		for i := 0; i < n; i++ {
			fp := unsafe.Add(base, uintptr(i)*size+pf.off)
			switch pf.op {
			case opStr:
				*(*string)(fp) = cr.strs[i]
			case opBytes:
				*(*[]byte)(fp) = blobs[i]
			default:
				store(fp, pf.op, ints[i])
			}
		}
	}
	return rows.Interface(), nil
}

// store writes the wire value v at fp as the plan opcode op has it in
// memory.
func store(fp unsafe.Pointer, op uint8, v uint64) {
	switch op {
	case opBool:
		*(*bool)(fp) = uint8(v) != 0 // a bool in memory is 0 or 1
	case opI8, opU8:
		*(*uint8)(fp) = uint8(v)
	case opI16, opU16:
		*(*uint16)(fp) = uint16(v)
	case opI32, opU32, opF32:
		*(*uint32)(fp) = uint32(v)
	case opInt:
		*(*int)(fp) = int(v)
	case opUint:
		*(*uint)(fp) = uint(v)
	default: // opI64, opU64, opF64
		*(*uint64)(fp) = v
	}
}

// readColumns consumes a columnar frame — plain (0x04) or, when
// compressed is set, per-column compressed (0x05) — into one Record: the
// batch a bound ColumnDecoder builds (onto into, when given), else the
// []T of the format's local type, else (no local type matches) no value.
func (d *Decoder) readColumns(compressed bool, into any) (*Record, error) {
	id, err := d.readUint32()
	if err != nil {
		return nil, badEOF(err)
	}
	f := d.formats[id]
	if f == nil {
		return nil, fmt.Errorf("%w: columns format id %d", ErrUnknownFormat, id)
	}
	n, err := d.readUint32()
	if err != nil {
		return nil, badEOF(err)
	}
	if n == 0 || n > d.maxRows {
		return nil, fmt.Errorf("%w: columns count %d (limit %d)", ErrBadFrame, n, d.maxRows)
	}
	cr := &d.cr
	cr.fields, cr.col, cr.rows, cr.z = f.Fields, 0, int(n), compressed
	rec := &Record{Format: f.Name}
	switch {
	case f.goType == nil:
		for range f.Fields {
			if err = cr.skip(); err != nil {
				break
			}
		}
	case d.reg.colDecoders[f.Name] != nil:
		rec.Value, err = d.reg.colDecoders[f.Name](cr, int(n), into)
	default:
		rec.Value, err = cr.readRows(d.reg.plans[f.goType], int(n))
	}
	if err != nil {
		return nil, badEOF(err)
	}
	return rec, nil
}

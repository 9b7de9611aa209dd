package pbio

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"time"
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
// payload. It must read exactly rows values for each of the format's
// fields, in field order, through the ColumnReader — the reader is a
// window onto the stream, so over- or under-reading desynchronizes it.
// The returned value becomes the decoded Record's Value.
type ColumnDecoder func(cr *ColumnReader, rows int) (any, error)

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

// ColumnReader exposes typed, bounds-checked reads over a columnar
// frame's payload for ColumnDecoder implementations.
//
// For plain 0x04 frames every read is a fixed-width passthrough. For
// compressed 0x05 frames (rows > 0) the reader is a small state machine:
// a column's worth of reads counts down remaining, and the read that
// crosses a column boundary first consumes the next ColEnc* tag (plus a
// dictionary, for ColEncDict) before producing its value. The decoding
// is transparent to callers — a ColumnDecoder written against 0x04
// frames works unchanged on 0x05.
type ColumnReader struct {
	d *Decoder

	// rows > 0 marks compressed (0x05) mode; everything below is the
	// current column's decode state.
	rows      int
	remaining int
	enc       byte
	prev      uint64 // delta accumulator
	runLen    uint32 // values left in the current RLE/dict run
	runVal    uint64
	runStr    string
	dict      []string
}

// startColumn consumes the next column's encoding tag (and dictionary)
// when the previous column is exhausted. No-op in plain mode.
func (cr *ColumnReader) startColumn() error {
	if cr.remaining > 0 {
		return nil
	}
	enc, err := cr.d.readByte()
	if err != nil {
		return badEOF(err)
	}
	cr.enc = enc
	cr.prev = 0
	cr.runLen = 0
	cr.dict = cr.dict[:0]
	cr.remaining = cr.rows
	switch enc {
	case ColEncRaw, ColEncDelta, ColEncRLE:
	case ColEncDict:
		cnt, err := cr.d.readUvarint()
		if err != nil {
			return badEOF(err)
		}
		if cnt > uint64(cr.rows) {
			return fmt.Errorf("%w: column dictionary of %d entries for %d rows", ErrBadFrame, cnt, cr.rows)
		}
		for i := uint64(0); i < cnt; i++ {
			s, err := cr.d.readString()
			if err != nil {
				return badEOF(err)
			}
			cr.dict = append(cr.dict, s)
		}
	default:
		return fmt.Errorf("%w: column encoding 0x%02x", ErrBadFrame, enc)
	}
	return nil
}

// zint decodes one integer value from the current compressed column.
// done=false means the column is raw (or the reader is in plain mode)
// and the caller should fall through to its fixed-width read.
func (cr *ColumnReader) zint() (v uint64, done bool, err error) {
	if cr.rows == 0 {
		return 0, false, nil
	}
	if err := cr.startColumn(); err != nil {
		return 0, false, err
	}
	switch cr.enc {
	case ColEncRaw:
		cr.remaining--
		return 0, false, nil
	case ColEncDelta:
		uv, err := cr.d.readUvarint()
		if err != nil {
			return 0, false, badEOF(err)
		}
		cr.prev += uint64(int64(uv>>1) ^ -int64(uv&1))
		cr.remaining--
		return cr.prev, true, nil
	case ColEncRLE:
		if cr.runLen == 0 {
			rl, err := cr.d.readUvarint()
			if err != nil {
				return 0, false, badEOF(err)
			}
			if rl == 0 || rl > uint64(cr.remaining) {
				return 0, false, fmt.Errorf("%w: run of %d values with %d column values remaining",
					ErrBadFrame, rl, cr.remaining)
			}
			rv, err := cr.d.readUvarint()
			if err != nil {
				return 0, false, badEOF(err)
			}
			cr.runLen, cr.runVal = uint32(rl), rv
		}
		cr.runLen--
		cr.remaining--
		return cr.runVal, true, nil
	default: // ColEncDict
		return 0, false, fmt.Errorf("%w: dictionary-encoded integer column", ErrBadFrame)
	}
}

// Byte reads one unsigned byte.
func (cr *ColumnReader) Byte() (byte, error) {
	if v, ok, err := cr.zint(); err != nil {
		return 0, err
	} else if ok {
		return byte(v), nil
	}
	return cr.d.readByte()
}

// Uint16 reads a little-endian u16.
func (cr *ColumnReader) Uint16() (uint16, error) {
	if v, ok, err := cr.zint(); err != nil {
		return 0, err
	} else if ok {
		return uint16(v), nil
	}
	return cr.d.readUint16()
}

// Uint32 reads a little-endian u32.
func (cr *ColumnReader) Uint32() (uint32, error) {
	if v, ok, err := cr.zint(); err != nil {
		return 0, err
	} else if ok {
		return uint32(v), nil
	}
	return cr.d.readUint32()
}

// Uint64 reads a little-endian u64.
func (cr *ColumnReader) Uint64() (uint64, error) {
	if v, ok, err := cr.zint(); err != nil {
		return 0, err
	} else if ok {
		return v, nil
	}
	return cr.d.readUint64()
}

// Int32 reads a little-endian i32.
func (cr *ColumnReader) Int32() (int32, error) {
	v, err := cr.Uint32()
	return int32(v), err
}

// Int64 reads a little-endian i64.
func (cr *ColumnReader) Int64() (int64, error) {
	v, err := cr.Uint64()
	return int64(v), err
}

// Int reads a wire i64 into a platform int.
func (cr *ColumnReader) Int() (int, error) {
	v, err := cr.Uint64()
	return int(int64(v)), err
}

// Duration reads a wire i64 of nanoseconds.
func (cr *ColumnReader) Duration() (time.Duration, error) {
	v, err := cr.Uint64()
	return time.Duration(v), err
}

// String reads a length-prefixed string, subject to the stream's field
// length limit. Dictionary-encoded columns share one string allocation
// per distinct value across the whole column.
func (cr *ColumnReader) String() (string, error) {
	if cr.rows > 0 {
		if err := cr.startColumn(); err != nil {
			return "", err
		}
		switch cr.enc {
		case ColEncRaw:
			cr.remaining--
			return cr.d.readString()
		case ColEncDict:
			if cr.runLen == 0 {
				rl, err := cr.d.readUvarint()
				if err != nil {
					return "", badEOF(err)
				}
				if rl == 0 || rl > uint64(cr.remaining) {
					return "", fmt.Errorf("%w: run of %d strings with %d column values remaining",
						ErrBadFrame, rl, cr.remaining)
				}
				idx, err := cr.d.readUvarint()
				if err != nil {
					return "", badEOF(err)
				}
				if idx >= uint64(len(cr.dict)) {
					return "", fmt.Errorf("%w: dictionary index %d of %d entries",
						ErrBadFrame, idx, len(cr.dict))
				}
				cr.runLen, cr.runStr = uint32(rl), cr.dict[idx]
			}
			cr.runLen--
			cr.remaining--
			return cr.runStr, nil
		default:
			return "", fmt.Errorf("%w: string column encoding 0x%02x", ErrBadFrame, cr.enc)
		}
	}
	return cr.d.readString()
}

// bytes reads a length-prefixed byte slice, subject to the stream's field
// length limit. A compressed frame carries such a column raw.
func (cr *ColumnReader) bytes() ([]byte, error) {
	if cr.rows > 0 {
		if err := cr.startColumn(); err != nil {
			return nil, err
		}
		if cr.enc != ColEncRaw {
			return nil, fmt.Errorf("%w: bytes column encoding 0x%02x", ErrBadFrame, cr.enc)
		}
		cr.remaining--
	}
	n, err := cr.d.readUint32()
	if err != nil {
		return nil, err
	}
	if n > maxFieldLen {
		return nil, fmt.Errorf("%w: bytes field length %d exceeds limit", ErrBadFrame, n)
	}
	return cr.d.readLengthPrefixed(n)
}

// store reads one value through the column state machine and stores it
// at fp by the plan opcode op: appendFields' inverse, one typed read and
// one store per value.
func (cr *ColumnReader) store(fp unsafe.Pointer, op uint8) error {
	switch op {
	case opBool, opI8, opU8:
		v, err := cr.Byte()
		if op == opBool && v != 0 {
			v = 1 // a bool in memory is 0 or 1
		}
		*(*uint8)(fp) = v
		return err
	case opI16, opU16:
		v, err := cr.Uint16()
		*(*uint16)(fp) = v
		return err
	case opI32, opU32, opF32:
		v, err := cr.Uint32()
		*(*uint32)(fp) = v
		return err
	case opStr:
		v, err := cr.String()
		*(*string)(fp) = v
		return err
	case opBytes:
		v, err := cr.bytes()
		*(*[]byte)(fp) = v
		return err
	}
	v, err := cr.Uint64()
	switch op {
	case opInt:
		*(*int)(fp) = int(v)
	case opUint:
		*(*uint)(fp) = uint(v)
	default: // opI64, opU64, opF64
		*(*uint64)(fp) = v
	}
	return err
}

// skip reads one value of wire kind k and drops it: how a frame whose
// format has no local type is consumed.
func (cr *ColumnReader) skip(k Kind) (err error) {
	switch k {
	case KindBool, KindInt8, KindUint8:
		_, err = cr.Byte()
	case KindInt16, KindUint16:
		_, err = cr.Uint16()
	case KindInt32, KindUint32, KindFloat32:
		_, err = cr.Uint32()
	case KindInt64, KindUint64, KindFloat64, KindDuration:
		_, err = cr.Uint64()
	case KindString:
		_, err = cr.String()
	case KindBytes:
		_, err = cr.bytes()
	default:
		err = fmt.Errorf("%w: field kind %d", ErrBadFrame, k)
	}
	return err
}

// readRows decodes a frame of n rows into one []T through T's plan. Rows
// are made as the first column delivers them, at most MaxColumnReserve
// ahead of the bytes, so memory stays bounded by what the stream carried.
func (cr *ColumnReader) readRows(p *Plan, n int) (any, error) {
	size, have := p.f.goType.Size(), min(n, MaxColumnReserve)
	rows := reflect.MakeSlice(reflect.SliceOf(p.f.goType), have, have)
	base := rows.UnsafePointer()
	for _, pf := range p.fields {
		for i := 0; i < n; i++ {
			if i == have {
				have = min(2*i, n)
				grown := reflect.MakeSlice(rows.Type(), have, have)
				reflect.Copy(grown, rows)
				rows, base = grown, grown.UnsafePointer()
			}
			if err := cr.store(unsafe.Add(base, uintptr(i)*size+pf.off), pf.op); err != nil {
				return nil, err
			}
		}
	}
	return rows.Interface(), nil
}

// readColumns consumes a columnar frame — plain (0x04) or, when
// compressed is set, per-column compressed (0x05) — into one Record: the
// batch a bound ColumnDecoder builds, else the []T of the format's local
// type, else (no local type matches) no value.
func (d *Decoder) readColumns(compressed bool) (*Record, error) {
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
	cr := &ColumnReader{d: d}
	if compressed {
		cr.rows = int(n)
	}
	rec := &Record{Format: f.Name}
	switch {
	case f.goType == nil:
		for _, fld := range f.Fields {
			for i := uint32(0); i < n && err == nil; i++ {
				err = cr.skip(fld.Kind)
			}
		}
	case d.reg.colDecoders[f.Name] != nil:
		rec.Value, err = d.reg.colDecoders[f.Name](cr, int(n))
	default:
		rec.Value, err = cr.readRows(d.reg.plans[f.goType], int(n))
	}
	if err != nil {
		return nil, badEOF(err)
	}
	return rec, nil
}

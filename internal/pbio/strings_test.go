package pbio

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// classRows are n flatRec rows whose classes are distinct strings of size
// bytes (size at least the digits of n): each row's index, zero-padded.
func classRows(n, size int) []flatRec {
	rows := make([]flatRec, n)
	for i := range rows {
		rows[i] = flatRec{ID: uint64(i), Class: fmt.Sprintf("%0*d", size, i)}
	}
	return rows
}

// straddling returns a stream — a definition and one plain frame of
// classRows of size bytes after a filler row — in which one class's length
// prefix lies inside the stream's first bufferedWindow bytes and its bytes
// run past them, so an in-memory decoder's first window holds only part
// of that string.
func straddling(t *testing.T, size int) ([]byte, []flatRec) {
	t.Helper()
	reg := fuzzRegistry(t)
	for filler := 0; filler < 4+size; filler++ {
		rows := classRows(bufferedWindow/(4+size)+4, size)
		rows[0].Class = strings.Repeat("f", filler)
		var buf bytes.Buffer
		writeBatch(t, reg, &buf, rows, true)
		stream := buf.Bytes()
		for _, r := range rows[1:] {
			if at := bytes.Index(stream, []byte(r.Class)); at < bufferedWindow && at+size > bufferedWindow {
				return stream, rows
			}
		}
	}
	t.Fatalf("no filler puts a %d-byte class across the window edge", size)
	return nil, nil
}

// TestDecodedStringsOwnTheirBytes: a string a decoder returns — interned
// or not, out of its window, its short-string scratch or a long read —
// refers to none of the bytes the decoder reads through. Overwriting the
// source after a frame is decoded, and refilling the window with the
// frames after it, leaves the frame's strings as they were.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	reg := fuzzRegistry(t)
	first := append(classRows(40, 20), classRows(40, internMaxLen+36)...)
	var head, tail bytes.Buffer
	writeBatch(t, reg, &head, first, true)
	var rest [][]flatRec
	for size := 48; size < 56; size++ { // some 100 KB: the window refills many times
		rows := classRows(200, size)
		writeBatch(t, reg, &tail, rows, false)
		rest = append(rest, rows)
	}
	for src := range sources(nil) {
		stream := append(bytes.Clone(head.Bytes()), tail.Bytes()...)
		dec := NewDecoder(sources(stream)[src], reg)
		rec, err := dec.Decode()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got := rec.Value.([]flatRec)
		clear(stream[:head.Len()])
		recs, err := drain(dec)
		if err != io.EOF || len(recs) != len(rest) {
			t.Fatalf("%s: %d frames after the first, err %v; want %d, io.EOF", src, len(recs), err, len(rest))
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r.Value, rest[i]) {
				t.Fatalf("%s: frame %d after the first decoded wrong", src, i+1)
			}
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("%s: the first frame's rows changed after its source bytes were overwritten", src)
		}
	}
}

// TestDecoderInternTableBound: a stream of more distinct short strings
// than the intern table takes decodes exactly, and the table stops at
// internMaxEntries; a string one byte over internMaxLen, and one of
// 1 MiB, decode as they always have and are never entered in it.
func TestDecoderInternTableBound(t *testing.T) {
	reg := fuzzRegistry(t)
	distinct := classRows(internMaxEntries+500, 16)
	long := []flatRec{{Class: strings.Repeat("x", internMaxLen+1)}, {Class: strings.Repeat("y", 1<<20)}}
	var buf bytes.Buffer
	writeBatch(t, reg, &buf, distinct, true)
	writeBatch(t, reg, &buf, long, false)
	for src, r := range sources(buf.Bytes()) {
		dec := NewDecoder(r, reg)
		recs, err := drain(dec)
		if err != io.EOF || len(recs) != 2 {
			t.Fatalf("%s: %d frames, err %v; want 2, io.EOF", src, len(recs), err)
		}
		if !reflect.DeepEqual(recs[0].Value, distinct) || !reflect.DeepEqual(recs[1].Value, long) {
			t.Fatalf("%s: decoded rows differ from the encoded ones", src)
		}
		if len(dec.names) != internMaxEntries {
			t.Fatalf("%s: intern table holds %d strings, want its cap %d", src, len(dec.names), internMaxEntries)
		}
		for _, r := range long {
			if _, ok := dec.names[r.Class]; ok {
				t.Fatalf("%s: a %d-byte string was interned", src, len(r.Class))
			}
		}
	}
}

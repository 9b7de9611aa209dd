package gpa

// What a shard sends a frontend, on the wire and on disk. Every reply a
// frontend merges is one self-describing pbio stream, base64-framed for
// the line protocol, and every frame in it is compressed columnar (0x05)
// — the shard link's own encoding, whose per-column delta/RLE/dictionary
// codes already buy what a general compressor would.
//
// A shard answers "pcorrelated [n]" with its correlated-history page: a
// head frame, then the client halves and the server halves as
// interaction frames of at most pageFrameRows rows. A dump is the same
// pages, unframed, one after another. The frontend decodes the halves
// through the interaction format's bound column decoder straight into the
// columns its merge walks — recycled between queries — and the head into
// a []headRow.
//
// It answers "pstats", "pnodes", "pload <node>" and "pclasses" with rows:
// a definition and one frame of a registered row struct, which the
// frontend decodes into a []T through the plan that encoded it. An empty
// reply is no rows. Both kinds of reply are read through one recycled
// replyReader.

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// pageFrameRows is the most rows one half frame carries: the column
// decoder's reservation, so the shard encodes through one frame of
// scratch and the frontend never regrows a column mid-frame.
const pageFrameRows = pbio.MaxColumnReserve

// maxPageRows bounds the rows one page may materialize at its reader
// (about 256 MiB of columns); a dump of a longer history is several
// pages. A run-length column expands rows out of a few bytes exactly as a
// gzip bomb does, so the cap is on rows, not bytes, and binds before a
// frame is decoded: the head may declare at most this many, and each half
// at most what the head delivered. It is a variable only so that tests
// can cut a small history into several pages.
var maxPageRows = 1 << 19

// pageHead is the head frame's one column: per interaction, its sequence
// tag shifted left one, plus 1 when its flow is the server record's rather
// than the client's. Correlation stamps an interaction with the flow of
// the record that completed it, so it is always one of the two and the
// halves already carry both.
type pageHead []uint64

// headRow is the head frame's registered row: pbio decodes a head frame
// into a []headRow through its plan.
type headRow struct{ SeqFlow uint64 }

const pageHeadFormat = "sysprof.pagehead"

// nodeRow is a "pnodes" row: one reporting node.
type nodeRow struct{ Node simnet.NodeID }

// classRow is a "pclasses" row: one node's aggregate of one class, in
// dissem.WireAggregate's shape.
type classRow struct {
	Node simnet.NodeID
	core.Aggregate
}

// maxNodeRows bounds a "pnodes" reply: every node id once.
const maxNodeRows = 1 << 16

// The shard link's formats, fixed at start-up: the page stream's two, with
// their encode plans, and the four row replies'.
var (
	pageReg            = pbio.NewRegistry()
	headPlan, halfPlan *pbio.Plan
)

func init() {
	pageReg.MustRegister(pageHeadFormat, headRow{})
	if err := core.RegisterRecordFormat(pageReg); err != nil {
		panic(err)
	}
	headPlan = pageReg.PlanFor(reflect.TypeOf(headRow{}))
	halfPlan = pageReg.PlanFor(reflect.TypeOf(core.Record{}))
	pageReg.MustRegister("sysprof.stats", StatsReply{})
	pageReg.MustRegister("sysprof.load", Load{})
	pageReg.MustRegister("sysprof.node", nodeRow{})
	pageReg.MustRegister("sysprof.classagg", classRow{})
}

// Rows, NumWireFields, AppendColumn and AppendCompressedColumn implement
// pbio's compressed column-batch contract; sequence tags climb, so the
// column is delta-coded.
func (h pageHead) Rows() int { return len(h) }

func (h pageHead) NumWireFields() int { return 1 }

func (h pageHead) AppendColumn(buf []byte, _ int) []byte {
	for _, v := range h {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func (h pageHead) AppendCompressedColumn(buf []byte, _ int) []byte {
	buf = append(buf, pbio.ColEncDelta)
	var prev uint64
	for _, v := range h {
		d := int64(v - prev)
		buf = binary.AppendUvarint(buf, uint64(d<<1)^uint64(d>>63))
		prev = v
	}
	return buf
}

// runCoded is a half frame's batch. The interaction encoder picks each
// column's code statically, and delta-codes a column of n equal values as
// that value plus n-1 zero bytes; packet counts and protocol times are
// such columns, a fifth of a page. runCoded sends those as one run.
type runCoded struct{ *core.RecordColumns }

func (c runCoded) AppendCompressedColumn(buf []byte, field int) []byte {
	start := len(buf)
	buf = c.RecordColumns.AppendCompressedColumn(buf, field)
	col, n := buf[start:], c.Rows()
	first, w := binary.Uvarint(col[1:])
	if col[0] != pbio.ColEncDelta || n < 2 || len(col) != w+n || bytes.Count(col[1+w:], []byte{0}) != n-1 {
		return buf
	}
	buf = binary.AppendUvarint(append(buf[:start], pbio.ColEncRLE), uint64(n))
	return binary.AppendUvarint(buf, uint64(int64(first>>1)^-int64(first&1)))
}

// pageScratch is what rendering pages needs. Pooled, so steady-state
// queries allocate only their reply and nothing page-sized stays on the
// GPA between them.
type pageScratch struct {
	rows  []SeqEndToEnd      // the history to render, in stripe order
	order []int              // rows under the merge key
	head  pageHead           // the head frame's batch
	chunk core.RecordColumns // one half frame's batch
	wire  []byte
}

var pagePool = sync.Pool{New: func() any { return new(pageScratch) }}

// gather copies every stripe's history into the scratch rows — the one
// copy of a row rendering makes before it encodes it — detaching it from
// the stripes when detach is set, and orders the rows under the merge
// key.
func (sc *pageScratch) gather(g *GPA, detach bool) {
	sc.rows = sc.rows[:0]
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for j := range s.correlated {
			sc.rows = append(sc.rows, SeqEndToEnd{Seq: s.correlated[j].seq, EndToEnd: s.correlated[j].e2e})
		}
		if detach {
			s.stats.CorrelatedEvicted += uint64(len(s.correlated))
			s.correlated = nil // release the backing array for long runs
		}
		s.mu.Unlock()
	}
	sc.order = sc.completionOrder(sc.order[:0])
}

// completionOrder appends the scratch rows' indices to order, sorted by
// (completion, seq): the merge key within one shard.
func (sc *pageScratch) completionOrder(order []int) []int {
	return completionOrder(order, len(sc.rows), func(i int) (time.Duration, uint64) {
		return sc.rows[i].done(), sc.rows[i].Seq
	})
}

// halves are a page's two half frames, each a column of one endpoint's
// records.
var halves = [...]func(*EndToEnd) *core.Record{
	func(e *EndToEnd) *core.Record { return &e.Client },
	func(e *EndToEnd) *core.Record { return &e.Server },
}

// render sets wire to one page holding the given scratch rows, in that
// order, with half frames cut every frameRows rows.
func (sc *pageScratch) render(rows []int, frameRows int) error {
	sc.head = sc.head[:0]
	for _, i := range rows {
		switch r := &sc.rows[i]; r.Flow {
		case r.Client.Flow:
			sc.head = append(sc.head, r.Seq<<1)
		case r.Server.Flow:
			sc.head = append(sc.head, r.Seq<<1|1)
		default:
			return fmt.Errorf("gpa: interaction %d's flow %v is neither endpoint's", r.Seq, r.Flow)
		}
	}
	buf := headPlan.Format().AppendDef(sc.wire[:0])
	buf = halfPlan.Format().AppendDef(buf)
	buf, _, err := headPlan.AppendCompressedColumnsFrame(buf, sc.head)
	for _, half := range halves {
		for lo := 0; lo < len(rows) && err == nil; lo += frameRows {
			sc.chunk.Reset()
			for _, i := range rows[lo:min(lo+frameRows, len(rows))] {
				sc.chunk.Append(half(&sc.rows[i].EndToEnd))
			}
			buf, _, err = halfPlan.AppendCompressedColumnsFrame(buf, runCoded{&sc.chunk})
		}
	}
	sc.wire = buf
	if err != nil {
		return fmt.Errorf("gpa: encode page: %w", err)
	}
	return nil
}

// correlatedPage renders the "pcorrelated" reply: the last n (0 = all)
// correlated interactions under the merge key, in that order, with half
// frames cut every frameRows rows. The tail is cut under (completion,
// seq) rather than seq alone so that the union of every shard's tail
// contains the federation's tail. An empty history is an empty reply.
func (g *GPA) correlatedPage(n, frameRows int) (string, error) {
	sc := pagePool.Get().(*pageScratch)
	defer pagePool.Put(sc)
	sc.gather(g, false)
	order := sc.order
	if n > 0 && len(order) > n {
		order = order[len(order)-n:]
	}
	if len(order) == 0 {
		return "", nil
	}
	if len(order) > maxPageRows {
		return "", fmt.Errorf("gpa: history of %d interactions exceeds the %d-row page; ask for a tail", len(order), maxPageRows)
	}
	if err := sc.render(order, frameRows); err != nil {
		return "", err
	}
	return encodeReply(sc.wire), nil
}

// rowsReply renders rows as a p* reply: T's definition and one frame of
// every row, or an empty reply for none.
func rowsReply[T any](rows []T) (string, error) {
	if len(rows) == 0 {
		return "", nil
	}
	if len(rows) > maxPageRows {
		return "", fmt.Errorf("gpa: %d rows exceed the %d-row page", len(rows), maxPageRows)
	}
	sc := pagePool.Get().(*pageScratch)
	defer pagePool.Put(sc)
	p, cols := pbio.StructColumns(pageReg, rows)
	buf, _, err := p.AppendCompressedColumnsFrame(p.Format().AppendDef(sc.wire[:0]), cols)
	sc.wire = buf
	if err != nil {
		return "", fmt.Errorf("gpa: encode reply: %w", err)
	}
	return encodeReply(buf), nil
}

// encodeReply base64-frames raw for the line protocol in one allocation:
// the reply string's own.
func encodeReply(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(out, raw)
	return unsafe.String(&out[0], len(out))
}

// writePages writes every ordered row of the scratch to w as a stream of
// pages of at most maxPageRows rows each: the file form of a history,
// which LoadDump reads back.
func (sc *pageScratch) writePages(w io.Writer) error {
	for lo := 0; lo < len(sc.order); lo += maxPageRows {
		if err := sc.render(sc.order[lo:min(lo+maxPageRows, len(sc.order))], pageFrameRows); err != nil {
			return err
		}
		if _, err := w.Write(sc.wire); err != nil {
			return fmt.Errorf("gpa: dump: %w", err)
		}
	}
	return nil
}

// decodedPages recycles the pages a frontend decodes shard replies into,
// so the columns of a steady stream of queries are allocated once and not
// per page. Nothing is kept between queries but what the pool holds.
var decodedPages = sync.Pool{New: func() any { return new(E2EColumns) }}

// releasePage returns a page decodeCorrelatedPage made to the pool; the
// caller keeps no reference to it or its columns.
func releasePage(p *E2EColumns) {
	p.reset()
	decodedPages.Put(p)
}

// replyReader reads one shard reply: its base64 framing decoded into a
// buffer, and a pbio decoder over the bytes. Both are recycled, so reading
// a reply allocates what it decodes and not the means to decode it.
// Nothing decoded refers to the buffer or the decoder's window: strings
// are copied out of them.
type replyReader struct {
	raw []byte
	src bytes.Reader
	dec *pbio.Decoder
}

var replyReaders = sync.Pool{New: func() any {
	rr := new(replyReader)
	rr.dec = pbio.NewDecoder(&rr.src, pageReg)
	return rr
}}

// openReply returns a pooled reader whose decoder reads payload's bytes;
// the caller hands it back with release.
func openReply(payload string) (*replyReader, error) {
	s := strings.TrimSpace(payload)
	rr := replyReaders.Get().(*replyReader)
	n := base64.StdEncoding.DecodedLen(len(s))
	rr.raw = slices.Grow(rr.raw[:0], n)[:n]
	n, err := base64.StdEncoding.Decode(rr.raw, []byte(s))
	if err != nil {
		rr.release()
		return nil, fmt.Errorf("bad base64 framing: %w", err)
	}
	rr.src.Reset(rr.raw[:n])
	rr.dec.Reset(&rr.src)
	return rr, nil
}

func (rr *replyReader) release() { replyReaders.Put(rr) }

// decodeCorrelatedPage parses one shard's "pcorrelated" payload — one
// page or, for an empty history, nothing — into a recycled page, which
// the caller hands to releasePage when done with it.
func decodeCorrelatedPage(payload string) (*E2EColumns, error) {
	rr, err := openReply(payload)
	if err != nil {
		return nil, fmt.Errorf("gpa: page: %w", err)
	}
	defer rr.release()
	page := decodedPages.Get().(*E2EColumns)
	err = readPage(rr.dec, page)
	if errors.Is(err, io.EOF) {
		return page, nil
	}
	if err == nil {
		if _, err = rr.dec.Decode(); errors.Is(err, io.EOF) {
			return page, nil
		}
		err = fmt.Errorf("gpa: page carries data past its %d rows", page.Len())
	}
	releasePage(page)
	return nil, err
}

// decodeRows parses one shard's p* payload into its rows: one frame of
// T's format holding from lo to hi rows, or, when lo is 0, nothing. The
// reply is untrusted: the row limit binds before the frame is decoded,
// and a frame of another format, a second frame or trailing bytes is an
// error.
func decodeRows[T any](payload string, lo, hi int) ([]T, error) {
	rr, err := openReply(payload)
	if err != nil {
		return nil, fmt.Errorf("gpa: rows: %w", err)
	}
	defer rr.release()
	rr.dec.LimitRows(hi)
	var rows []T
	switch rec, err := rr.dec.Decode(); {
	case errors.Is(err, io.EOF): // no rows
	case err != nil:
		return nil, fmt.Errorf("gpa: rows: %w", err)
	default:
		var ok bool
		if rows, ok = rec.Value.([]T); !ok {
			return nil, fmt.Errorf("gpa: rows: a %q frame, want %q", rec.Format,
				pageReg.PlanFor(reflect.TypeFor[T]()).Format().Name)
		}
		if _, err := rr.dec.Decode(); !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("gpa: rows: reply carries data past its %d rows", len(rows))
		}
	}
	if len(rows) < lo {
		return nil, fmt.Errorf("gpa: rows: %d rows, want at least %d", len(rows), lo)
	}
	return rows, nil
}

// readPages reads a stream of pages to its end, as one page holding every
// page's rows in stream order.
func readPages(r io.Reader) (*E2EColumns, error) {
	if _, ok := r.(io.ByteReader); !ok {
		// A bare reader is read a field at a time; a buffer makes that a
		// read(2) per few KB of the file instead.
		r = bufio.NewReader(r)
	}
	dec := pbio.NewDecoder(r, pageReg)
	all := new(E2EColumns)
	for {
		err := readPage(dec, all)
		if errors.Is(err, io.EOF) {
			return all, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// readPage appends the next page of a stream to page; io.EOF means the
// stream ended cleanly before one began. The halves decode straight into
// page's columns, which a page of one frame per half (up to
// pageFrameRows rows, what a shard sends) sizes once, from the frame's
// row count. The stream is untrusted: the head frame may not declare
// more than maxPageRows rows, a half frame may not declare more rows
// than the head still owes that half, and no more than a frame's rows
// are reserved ahead of the frames that deliver them.
func readPage(dec *pbio.Decoder, page *E2EColumns) error {
	dec.LimitRows(maxPageRows)
	rec, err := dec.Decode()
	if errors.Is(err, io.EOF) {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("gpa: page head: %w", err)
	}
	head, ok := rec.Value.([]headRow)
	if !ok {
		return fmt.Errorf("gpa: page opens with a %q frame, want %q", rec.Format, pageHeadFormat)
	}
	base, n := page.Len(), len(head)
	for _, half := range [...]*core.RecordColumns{&page.Client, &page.Server} {
		for got := 0; got < n; got = half.Len() - base {
			dec.LimitRows(n - got)
			rec, err := dec.DecodeInto(half)
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return fmt.Errorf("gpa: page half after %d of %d rows: %w", got, n, err)
			}
			if rec.Value != half {
				return fmt.Errorf("gpa: page half carries a %q frame, want %q", rec.Format, halfPlan.Format().Name)
			}
		}
	}
	// Every row has arrived, so n is backed by delivered bytes.
	page.Seqs = append(page.Seqs, make([]uint64, n)...)
	page.Flows = append(page.Flows, make([]simnet.FlowKey, n)...)
	if err := page.validate(); err != nil {
		return err
	}
	for i, h := range head {
		k := base + i
		page.Seqs[k] = h.SeqFlow >> 1
		if page.Flows[k] = page.Client.Flows[k]; h.SeqFlow&1 != 0 {
			page.Flows[k] = page.Server.Flows[k]
		}
	}
	return nil
}

package gpa

// The correlated-history page on the wire and on disk. A shard answers
// "pcorrelated [n]" with one self-describing pbio stream, base64-framed
// for the line protocol: a head frame, then the client halves and the
// server halves as interaction frames of at most pageFrameRows rows. A
// dump is the same pages, unframed, one after another. Every frame is
// compressed columnar (0x05) — the shard link's own encoding, whose
// per-column delta/RLE/dictionary codes already buy what a general
// compressor would — and the frontend decodes the halves through the
// interaction format's bound column decoder straight into the columns its
// merge walks, and the head into a []headRow.

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"

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

// The page stream's two formats and their encode plans, fixed at start-up.
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
	page  E2EColumns         // the history to render, in stripe order
	order []int              // page's rows under the merge key
	head  pageHead           // the head frame's batch
	chunk core.RecordColumns // one half frame's batch
	wire  []byte
}

var pagePool = sync.Pool{New: func() any { return new(pageScratch) }}

// gather copies every stripe's history into the scratch page, detaching
// it from the stripes when detach is set, and orders the rows under the
// merge key.
func (sc *pageScratch) gather(g *GPA, detach bool) {
	p := &sc.page
	p.reset()
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for j := range s.correlated {
			p.appendE2E(s.correlated[j].seq, &s.correlated[j].e2e)
		}
		if detach {
			s.stats.CorrelatedEvicted += uint64(len(s.correlated))
			s.correlated = nil // release the backing array for long runs
		}
		s.mu.Unlock()
	}
	sc.order = p.completionOrder(sc.order[:0])
}

// render sets wire to one page holding the given rows of the scratch page,
// in that order, with half frames cut every frameRows rows.
func (sc *pageScratch) render(rows []int, frameRows int) error {
	p := &sc.page
	sc.head = sc.head[:0]
	for _, i := range rows {
		switch p.Flows[i] {
		case p.Client.Flows[i]:
			sc.head = append(sc.head, p.Seqs[i]<<1)
		case p.Server.Flows[i]:
			sc.head = append(sc.head, p.Seqs[i]<<1|1)
		default:
			return fmt.Errorf("gpa: interaction %d's flow %v is neither endpoint's", p.Seqs[i], p.Flows[i])
		}
	}
	buf := headPlan.Format().AppendDef(sc.wire[:0])
	buf = halfPlan.Format().AppendDef(buf)
	buf, _, err := headPlan.AppendCompressedColumnsFrame(buf, sc.head)
	for _, half := range [...]*core.RecordColumns{&p.Client, &p.Server} {
		for lo := 0; lo < len(rows) && err == nil; lo += frameRows {
			sc.chunk.Reset()
			for _, i := range rows[lo:min(lo+frameRows, len(rows))] {
				sc.chunk.AppendRow(half.Row(i))
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
	return base64.StdEncoding.EncodeToString(sc.wire), nil
}

// writePages writes every ordered row of the scratch page to w as a
// stream of pages of at most maxPageRows rows each: the file form of a
// history, which LoadDump reads back.
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

// decodeCorrelatedPage parses one shard's "pcorrelated" payload: one page
// or, for an empty history, nothing.
func decodeCorrelatedPage(payload string) (*E2EColumns, error) {
	raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(payload))
	if err != nil {
		return nil, fmt.Errorf("gpa: page: bad base64 framing: %w", err)
	}
	dec := pbio.NewDecoder(bytes.NewReader(raw), pageReg)
	page, err := readPage(dec)
	if errors.Is(err, io.EOF) {
		return new(E2EColumns), nil
	}
	if err != nil {
		return nil, err
	}
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("gpa: page carries data past its %d rows", page.Len())
	}
	return page, nil
}

// readPages reads a stream of pages to its end, as one page holding every
// page's rows in stream order.
func readPages(r io.Reader) (*E2EColumns, error) {
	if _, ok := r.(io.ByteReader); !ok {
		// The decoder reads a field at a time; without a buffer each is a
		// read(2) on a file.
		r = bufio.NewReader(r)
	}
	dec := pbio.NewDecoder(r, pageReg)
	all := new(E2EColumns)
	for {
		page, err := readPage(dec)
		if errors.Is(err, io.EOF) {
			return all, nil
		}
		if err != nil {
			return nil, err
		}
		all.Seqs = append(all.Seqs, page.Seqs...)
		all.Flows = append(all.Flows, page.Flows...)
		all.Client.AppendColumns(&page.Client)
		all.Server.AppendColumns(&page.Server)
	}
}

// readPage reads the next page of a stream; io.EOF means the stream ended
// cleanly before one began. The stream is untrusted: the head frame may
// not declare more than maxPageRows rows, a half frame may not declare
// more rows than the head still owes that half, and columns only grow as
// frames deliver them.
func readPage(dec *pbio.Decoder) (*E2EColumns, error) {
	dec.LimitRows(maxPageRows)
	rec, err := dec.Decode()
	if errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("gpa: page head: %w", err)
	}
	head, ok := rec.Value.([]headRow)
	if !ok {
		return nil, fmt.Errorf("gpa: page opens with a %q frame, want %q", rec.Format, pageHeadFormat)
	}
	page := new(E2EColumns)
	n := len(head)
	for _, half := range [...]*core.RecordColumns{&page.Client, &page.Server} {
		for half.Len() < n {
			dec.LimitRows(n - half.Len())
			rec, err := dec.Decode()
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, fmt.Errorf("gpa: page half after %d of %d rows: %w", half.Len(), n, err)
			}
			cols, ok := rec.Value.(*core.RecordColumns)
			switch {
			case !ok:
				return nil, fmt.Errorf("gpa: page half carries a %q frame, want %q", rec.Format, halfPlan.Format().Name)
			case half.Len() == 0:
				*half = *cols
			default:
				// Double, so a long history costs amortized-linear copying
				// while capacity stays within 2x of the rows delivered.
				half.Grow(max(half.Len(), cols.Len()))
				half.AppendColumns(cols)
			}
		}
	}
	// Every row has arrived, so n is backed by delivered bytes.
	page.Seqs, page.Flows = make([]uint64, n), make([]simnet.FlowKey, n)
	if err := page.validate(); err != nil {
		return nil, err
	}
	for i, h := range head {
		page.Seqs[i] = h.SeqFlow >> 1
		if page.Flows[i] = page.Client.Flows[i]; h.SeqFlow&1 != 0 {
			page.Flows[i] = page.Server.Flows[i]
		}
	}
	return page, nil
}

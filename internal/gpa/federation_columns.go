package gpa

// The federated correlated stream in columnar form. "jcorrelated" ships
// every interaction as a full JSON object, so a busy shard's history
// page is dominated by repeated field names; "jcorrelatedcolsz" serves
// the same stream as one column-oriented, gzip'd page. The frontend
// merges shard pages without materializing intermediate rows: each page
// is permuted into completion order once, then a k-way heap walks the
// cursors emitting globally ordered rows straight into the reply slice.

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// E2EColumns is a correlated-stream page in structure-of-arrays form:
// parallel sequence and flow columns plus the client and server halves
// as columnar record batches. It is the payload of the jcorrelatedcolsz
// query — the streamed form federation frontends merge.
type E2EColumns struct {
	Seqs   []uint64           `json:"seqs"`
	Flows  []simnet.FlowKey   `json:"flows"`
	Client core.RecordColumns `json:"client"`
	Server core.RecordColumns `json:"server"`
}

// Len returns the page's row count.
func (p *E2EColumns) Len() int { return len(p.Seqs) }

// appendE2E adds one tagged interaction to the page.
func (p *E2EColumns) appendE2E(rec *SeqEndToEnd) {
	p.Seqs = append(p.Seqs, rec.Seq)
	p.Flows = append(p.Flows, rec.Flow)
	p.Client.Append(&rec.Client)
	p.Server.Append(&rec.Server)
}

// e2eColumnsOf transposes a row stream into a columnar page.
func e2eColumnsOf(recs []SeqEndToEnd) *E2EColumns {
	p := &E2EColumns{}
	p.Client.Grow(len(recs))
	p.Server.Grow(len(recs))
	for i := range recs {
		p.appendE2E(&recs[i])
	}
	return p
}

// validate rejects pages whose columns disagree on row count — a
// truncated or corrupt shard reply must fail loudly here, not index out
// of range mid-merge.
func (p *E2EColumns) validate() error {
	n := len(p.Seqs)
	if len(p.Flows) != n {
		return fmt.Errorf("gpa: columnar page has %d seqs but %d flows", n, len(p.Flows))
	}
	if err := checkRecordColumns(&p.Client, n); err != nil {
		return fmt.Errorf("gpa: columnar page client half: %w", err)
	}
	if err := checkRecordColumns(&p.Server, n); err != nil {
		return fmt.Errorf("gpa: columnar page server half: %w", err)
	}
	return nil
}

// checkRecordColumns verifies every column of a decoded record batch
// holds exactly n rows.
func checkRecordColumns(c *core.RecordColumns, n int) error {
	for _, l := range [...]int{
		len(c.IDs), len(c.Nodes), len(c.Flows), len(c.Classes), len(c.CPUs),
		len(c.Starts), len(c.Ends),
		len(c.ReqPackets), len(c.ReqBytes), len(c.RespPackets), len(c.RespBytes),
		len(c.ProtoTimes), len(c.TxTimes), len(c.BufferWaits),
		len(c.SyscallTimes), len(c.UserTimes), len(c.BlockedTimes),
		len(c.ServerPIDs), len(c.ServerProcs), len(c.CtxSwitches), len(c.DiskOps),
	} {
		if l != n {
			return fmt.Errorf("column holds %d rows, want %d", l, n)
		}
	}
	return nil
}

// CorrelatedColumns returns the correlated history as one columnar
// page, in per-process completion order — what "jcorrelatedcolsz"
// serves to federation frontends.
func (g *GPA) CorrelatedColumns() *E2EColumns {
	return e2eColumnsOf(g.CorrelatedSeq())
}

// pageDone is the merge key's primary component: the interaction's
// completion time, the later of the two endpoint Ends.
func pageDone(p *E2EColumns, i int) time.Duration {
	if d := p.Server.Ends[i]; d > p.Client.Ends[i] {
		return d
	}
	return p.Client.Ends[i]
}

// mergeHead is one shard's cursor in the k-way merge: its page, the
// page's completion-ordered row permutation, and the key of the row the
// cursor rests on.
type mergeHead struct {
	done  time.Duration
	shard int
	seq   uint64
	page  *E2EColumns
	order []int
	pos   int
}

func newMergeHead(shard int, page *E2EColumns) *mergeHead {
	order := make([]int, page.Len())
	for i := range order {
		order[i] = i
	}
	// Shard servers emit the history in per-process sequence order;
	// completion order can differ when interactions overlap, so the page
	// is permuted once up front. Sequence numbers are unique per shard,
	// which makes the (done, seq) key a total order within the page.
	sort.Slice(order, func(a, b int) bool {
		da, db := pageDone(page, order[a]), pageDone(page, order[b])
		if da != db {
			return da < db
		}
		return page.Seqs[order[a]] < page.Seqs[order[b]]
	})
	h := &mergeHead{shard: shard, page: page, order: order}
	h.reload()
	return h
}

// reload refreshes the cursor key from the row at pos.
func (h *mergeHead) reload() {
	i := h.order[h.pos]
	h.done = pageDone(h.page, i)
	h.seq = h.page.Seqs[i]
}

// less orders cursors by the global merge key (done, shard, seq) — the
// same key correlatedSeqRows sorts the flattened rows by, which is what
// makes the two paths byte-identical.
func (h *mergeHead) less(o *mergeHead) bool {
	if h.done != o.done {
		return h.done < o.done
	}
	if h.shard != o.shard {
		return h.shard < o.shard
	}
	return h.seq < o.seq
}

// siftDown restores the min-heap property for the cursor at index i.
func siftDown(hs []*mergeHead, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(hs) && hs[l].less(hs[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(hs) && hs[r].less(hs[m]) {
			m = r
		}
		if m == i {
			return
		}
		hs[i], hs[m] = hs[m], hs[i]
		i = m
	}
}

// maxPageBytes bounds one decompressed shard page (256 MiB). A
// malicious or corrupt shard must not be able to balloon the frontend's
// memory with a tiny gzip bomb.
const maxPageBytes = 1 << 28

// gzipPage compresses one JSON page and frames it as base64 so the
// binary stream survives the line-oriented query protocol.
func gzipPage(payload string) (string, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(payload)); err != nil {
		return "", fmt.Errorf("gpa: compress page: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("gpa: compress page: %w", err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// gunzipPage reverses gzipPage, refusing pages that decompress past
// maxPageBytes.
func gunzipPage(payload string) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(payload)
	if err != nil {
		return nil, fmt.Errorf("bad base64 framing: %w", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bad gzip stream: %w", err)
	}
	defer zr.Close()
	out, err := io.ReadAll(io.LimitReader(zr, maxPageBytes+1))
	if err != nil {
		return nil, fmt.Errorf("bad gzip stream: %w", err)
	}
	if len(out) > maxPageBytes {
		return nil, fmt.Errorf("page decompresses past %d bytes", maxPageBytes)
	}
	return out, nil
}

// decodeCorrelatedPage parses one shard's jcorrelatedcolsz payload:
// base64'd gzip of the columnar page's JSON object.
func decodeCorrelatedPage(payload string) (*E2EColumns, error) {
	raw, err := gunzipPage(strings.TrimSpace(payload))
	if err != nil {
		return nil, fmt.Errorf("gpa: compressed page: %w", err)
	}
	page := new(E2EColumns)
	if err := json.Unmarshal(raw, page); err != nil {
		return nil, err
	}
	if err := page.validate(); err != nil {
		return nil, err
	}
	return page, nil
}

// CorrelatedSeq merges the shards' correlated streams into one global
// completion order and renumbers the sequence tags. Per-process
// sequence numbers only order each shard's own stream, so the merge key
// is the interaction's completion time (the later endpoint End), with
// shard index and per-shard sequence as deterministic tie-breaks.
//
// The fan-out asks each shard for its gzip'd columnar page, then streams
// the pages through a k-way heap, materializing rows only as they are
// emitted into the reply. A shard that fails the query — unreachable, or
// answering with an error — is reported dead and the result degrades to
// a partial one.
func (f *Frontend) CorrelatedSeq() ([]SeqEndToEnd, FederationStatus, error) {
	replies, st := f.fanOut("jcorrelatedcolsz")
	if st.allDead() {
		return nil, st, fmt.Errorf("%w: %s", errAllShardsDead, strings.Join(st.Errors, "; "))
	}

	heads := make([]*mergeHead, 0, len(replies))
	total := 0
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		page, err := decodeCorrelatedPage(r.payload)
		if err != nil {
			return nil, st, fmt.Errorf("gpa: shard %d reply: %w", r.index, err)
		}
		if page.Len() == 0 {
			continue
		}
		heads = append(heads, newMergeHead(r.index, page))
		total += page.Len()
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	out := make([]SeqEndToEnd, 0, total)
	for len(heads) > 0 {
		h := heads[0]
		i := h.order[h.pos]
		out = append(out, SeqEndToEnd{
			Seq: uint64(len(out) + 1),
			EndToEnd: EndToEnd{
				Flow:   h.page.Flows[i],
				Client: h.page.Client.Row(i),
				Server: h.page.Server.Row(i),
			},
		})
		h.pos++
		if h.pos == len(h.order) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		} else {
			h.reload()
		}
		siftDown(heads, 0)
	}
	return out, st, nil
}

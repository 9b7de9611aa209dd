package gpa

// The federated correlated stream in columnar form. "jcorrelated" ships
// every interaction as a full JSON object for operators; between shards
// and the frontend the same stream travels as a pbio columnar page
// (pagewire.go). The frontend merges shard pages without materializing
// intermediate rows: each page is permuted into completion order once,
// then a k-way heap walks the cursors emitting globally ordered rows
// straight into the reply slice.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// E2EColumns is a correlated-stream page in structure-of-arrays form:
// parallel sequence and flow columns plus the client and server halves as
// columnar record batches — what a shard renders a "pcorrelated" reply
// from and what the frontend decodes one into.
type E2EColumns struct {
	Seqs   []uint64
	Flows  []simnet.FlowKey
	Client core.RecordColumns
	Server core.RecordColumns
}

// Len returns the page's row count.
func (p *E2EColumns) Len() int { return len(p.Seqs) }

// reset truncates the page to zero rows, keeping capacity.
func (p *E2EColumns) reset() {
	p.Seqs, p.Flows = p.Seqs[:0], p.Flows[:0]
	p.Client.Reset()
	p.Server.Reset()
}

// appendE2E adds one tagged interaction to the page.
func (p *E2EColumns) appendE2E(seq uint64, e *EndToEnd) {
	p.Seqs = append(p.Seqs, seq)
	p.Flows = append(p.Flows, e.Flow)
	p.Client.AppendRow(e.Client)
	p.Server.AppendRow(e.Server)
}

// validate rejects pages whose columns disagree on row count — a
// truncated or corrupt shard reply must fail loudly here, not index out
// of range mid-merge.
func (p *E2EColumns) validate() error {
	n := len(p.Seqs)
	if len(p.Flows) != n {
		return fmt.Errorf("gpa: columnar page has %d seqs but %d flows", n, len(p.Flows))
	}
	if err := p.Client.CheckRows(n); err != nil {
		return fmt.Errorf("gpa: columnar page client half: %w", err)
	}
	if err := p.Server.CheckRows(n); err != nil {
		return fmt.Errorf("gpa: columnar page server half: %w", err)
	}
	return nil
}

// done is the merge key's primary component: row i's completion time,
// the later of the two endpoint Ends.
func (p *E2EColumns) done(i int) time.Duration {
	return max(p.Client.Ends[i], p.Server.Ends[i])
}

// completionOrder appends the page's row indices to order, sorted by
// (completion, seq) — the merge key within one shard. Sequence numbers
// are unique per shard, which makes the key a total order on the page.
func (p *E2EColumns) completionOrder(order []int) []int {
	for i := range p.Seqs {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(p.done(a), p.done(b)); c != 0 {
			return c
		}
		return cmp.Compare(p.Seqs[a], p.Seqs[b])
	})
	return order
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
	// A well-behaved shard already emits completion order, which makes
	// this sort a linear scan; the reply is untrusted, so it still runs.
	h := &mergeHead{shard: shard, page: page, order: page.completionOrder(make([]int, 0, page.Len()))}
	h.reload()
	return h
}

// reload refreshes the cursor key from the row at pos.
func (h *mergeHead) reload() {
	i := h.order[h.pos]
	h.done = h.page.done(i)
	h.seq = h.page.Seqs[i]
}

// less orders cursors by the global merge key (done, shard, seq) — the
// same key the row oracle (merge_oracle_test.go) sorts the flattened rows
// by, which is what makes the two paths byte-identical.
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

// CorrelatedSeq merges the shards' correlated streams into one global
// completion order and renumbers the sequence tags. Per-process
// sequence numbers only order each shard's own stream, so the merge key
// is the interaction's completion time (the later endpoint End), with
// shard index and per-shard sequence as deterministic tie-breaks.
//
// The fan-out asks each shard for its columnar page, then streams the
// pages through a k-way heap, materializing rows only as they are
// emitted into the reply. A shard that fails the query — unreachable, or
// answering with an error — is reported dead and the result degrades to
// a partial one.
func (f *Frontend) CorrelatedSeq() ([]SeqEndToEnd, FederationStatus, error) {
	return f.correlatedTail(0)
}

// correlatedTail is CorrelatedSeq cut to the last n interactions (0 =
// all), numbered from 1. The count is pushed down: each shard sends its
// own last n under the merge key, whose union contains the global last n,
// and the merge materializes only those.
func (f *Frontend) correlatedTail(n int) ([]SeqEndToEnd, FederationStatus, error) {
	cmd := "pcorrelated"
	if n > 0 {
		cmd = fmt.Sprintf("pcorrelated %d", n)
	}
	replies, st := f.fanOut(cmd)
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
	skip := 0
	if n > 0 && total > n {
		skip = total - n
	}
	out := make([]SeqEndToEnd, 0, total-skip)
	for merged := 0; len(heads) > 0; merged++ {
		h := heads[0]
		if i := h.order[h.pos]; merged >= skip {
			out = append(out, SeqEndToEnd{
				Seq: uint64(len(out) + 1),
				EndToEnd: EndToEnd{
					Flow:   h.page.Flows[i],
					Client: h.page.Client.Row(i),
					Server: h.page.Server.Row(i),
				},
			})
		}
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

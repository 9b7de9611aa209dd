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
	"time"

	"sysprof/internal/core"
	"sysprof/internal/simnet"
)

// E2EColumns is a correlated-stream page in structure-of-arrays form:
// parallel sequence and flow columns plus the client and server halves as
// columnar record batches — what the frontend decodes a "pcorrelated"
// reply into and LoadDump a dump.
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

// copyRow writes row i into dst, overwriting every field.
func (p *E2EColumns) copyRow(dst *EndToEnd, i int) {
	dst.Flow = p.Flows[i]
	p.Client.CopyRow(&dst.Client, i)
	p.Server.CopyRow(&dst.Server, i)
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

// done is the merge key's primary component for a row-form interaction.
func (e *EndToEnd) done() time.Duration { return max(e.Client.End, e.Server.End) }

// completionOrder appends the page's row indices to order, sorted by
// (completion, seq) — the merge key within one shard.
func (p *E2EColumns) completionOrder(order []int) []int {
	return completionOrder(order, p.Len(), func(i int) (time.Duration, uint64) { return p.done(i), p.Seqs[i] })
}

// completionOrder appends 0..n-1 to order, sorted by the (completion,
// seq) key of each. Sequence numbers are unique per shard, which makes
// the key a total order on one shard's rows.
func completionOrder(order []int, n int, key func(i int) (time.Duration, uint64)) []int {
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		da, sa := key(a)
		db, sb := key(b)
		if c := cmp.Compare(da, db); c != 0 {
			return c
		}
		return cmp.Compare(sa, sb)
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
// emitted into the reply. A shard that fails the query — unreachable,
// answering with an error, or sending a page that does not decode — is
// reported dead and the result degrades to a partial one.
func (f *Frontend) CorrelatedSeq() ([]SeqEndToEnd, FederationStatus, error) {
	return f.correlatedTail(0)
}

// correlatedTail is CorrelatedSeq cut to the last n interactions (0 =
// all), numbered from 1.
func (f *Frontend) correlatedTail(n int) ([]SeqEndToEnd, FederationStatus, error) {
	return mergeTail(f, n, func(dst *SeqEndToEnd, seq uint64, p *E2EColumns, i int) {
		dst.Seq = seq
		p.copyRow(&dst.EndToEnd, i)
	})
}

// mergeTail fans "pcorrelated [n]" out and merges the shards' pages into
// the last n interactions (0 = all) in global completion order, writing
// each straight into its slot of the returned slice through fill, with
// its number in that order, from 1. The count is pushed down: each shard
// sends its own last n under the merge key, whose union contains the
// global last n, and the merge materializes only those.
func mergeTail[T any](f *Frontend, n int, fill func(dst *T, seq uint64, p *E2EColumns, i int)) ([]T, FederationStatus, error) {
	cmd := "pcorrelated"
	if n > 0 {
		cmd = fmt.Sprintf("pcorrelated %d", n)
	}
	replies, st := fanOut(f, cmd, decodeCorrelatedPage)
	if err := st.allDead(); err != nil {
		return nil, st, err
	}

	// Each page goes back to the pool once the merge has walked it.
	heads := make([]*mergeHead, 0, len(replies))
	total := 0
	for _, r := range replies {
		switch {
		case r.err != nil:
		case r.value.Len() == 0:
			releasePage(r.value)
		default:
			heads = append(heads, newMergeHead(r.index, r.value))
			total += r.value.Len()
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	skip := 0
	if n > 0 && total > n {
		skip = total - n
	}
	out := make([]T, total-skip)
	for merged := 0; len(heads) > 0; merged++ {
		h := heads[0]
		if merged >= skip {
			fill(&out[merged-skip], uint64(merged-skip+1), h.page, h.order[h.pos])
		}
		h.pos++
		if h.pos == len(h.order) {
			releasePage(h.page)
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		} else {
			h.reload()
		}
		siftDown(heads, 0)
	}
	return out, st, nil
}

package gpa

import (
	"encoding/json"
	"sort"
	"time"
)

// The row merge, kept as the reference the columnar page path is held
// to: fan out the operator-facing JSON row query, flatten every shard's
// stream, and sort the whole thing by (completion, shard, sequence).
// Frontend.correlatedTail streams pbio columnar pages through a k-way
// heap on the same key; the differential tests in federation_columns_test.go
// compare the two byte for byte.

// correlatedSeqRows is the materialize-then-sort merge of every shard's
// whole "jcorrelated" stream, numbered from 1.
func (f *Frontend) correlatedSeqRows() ([]SeqEndToEnd, FederationStatus, error) {
	replies, st := fanOut(f, "jcorrelated", func(payload string) (recs []SeqEndToEnd, err error) {
		err = json.Unmarshal([]byte(payload), &recs)
		return recs, err
	})
	if err := st.allDead(); err != nil {
		return nil, st, err
	}
	type tagged struct {
		done  time.Duration
		shard int
		seq   uint64
		e2e   EndToEnd
	}
	var all []tagged
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		for _, rec := range r.value {
			done := rec.Client.End
			if rec.Server.End > done {
				done = rec.Server.End
			}
			all = append(all, tagged{done: done, shard: r.index, seq: rec.Seq, e2e: rec.EndToEnd})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].done != all[j].done {
			return all[i].done < all[j].done
		}
		if all[i].shard != all[j].shard {
			return all[i].shard < all[j].shard
		}
		return all[i].seq < all[j].seq
	})
	out := make([]SeqEndToEnd, len(all))
	for i, t := range all {
		out[i] = SeqEndToEnd{Seq: uint64(i + 1), EndToEnd: t.e2e}
	}
	return out, st, nil
}

// oracleTail is the full-merge-then-slice definition of a tail query:
// the last n (0 = all) rows of the oracle merge, renumbered from 1.
func (f *Frontend) oracleTail(n int) ([]SeqEndToEnd, FederationStatus, error) {
	all, st, err := f.correlatedSeqRows()
	if err != nil {
		return nil, st, err
	}
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	for i := range all {
		all[i].Seq = uint64(i + 1)
	}
	return all, st, nil
}

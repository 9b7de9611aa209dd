package gpa

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sysprof/internal/core"
	"sysprof/internal/lineproto"
	"sysprof/internal/pbio"
)

// realPage renders a shard's page over an overlapping workload and
// returns its raw pbio stream (the reply, base64 removed).
func realPage(t testing.TB, pairs, n, frameRows int) (*GPA, []byte) {
	t.Helper()
	h := newFedHarness(t, 1, Config{})
	h.overlapWorkload(rand.New(rand.NewSource(11)), pairs)
	g := h.shards[0]
	reply, err := g.correlatedPage(n, frameRows)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := base64.StdEncoding.DecodeString(reply)
	if err != nil {
		t.Fatal(err)
	}
	return g, raw
}

func b64(raw []byte) string { return base64.StdEncoding.EncodeToString(raw) }

// TestPageRoundTrip: a page decodes to exactly the shard's history tail
// under the merge key, in that order, whatever the frame size; an empty
// history is an empty reply and an empty page.
func TestPageRoundTrip(t *testing.T) {
	for _, tc := range []struct{ pairs, n, frameRows int }{
		{40, 0, pageFrameRows}, {40, 0, 1}, {40, 0, 7}, {40, 40, 40}, {40, 13, 5}, {40, 99, 64}, {1, 0, pageFrameRows},
	} {
		g, raw := realPage(t, tc.pairs, tc.n, tc.frameRows)
		page, err := decodeCorrelatedPage(b64(raw))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := &pageScratch{rows: g.CorrelatedSeq()}
		order := want.completionOrder(nil)
		if tc.n > 0 && len(order) > tc.n {
			order = order[len(order)-tc.n:]
		}
		if page.Len() != len(order) {
			t.Fatalf("%+v: page has %d rows, want %d", tc, page.Len(), len(order))
		}
		for k, i := range order {
			if page.Seqs[k] != want.rows[i].Seq || page.Flows[k] != want.rows[i].Flow ||
				page.Client.Row(k) != want.rows[i].Client || page.Server.Row(k) != want.rows[i].Server {
				t.Fatalf("%+v: page row %d differs from history row %d", tc, k, i)
			}
		}
	}

	g, _ := newGPA(Config{})
	reply, err := g.Execute("pcorrelated")
	if err != nil || reply != "" {
		t.Fatalf("empty history: reply %q, err %v; want an empty reply", reply, err)
	}
	if page, err := decodeCorrelatedPage(reply); err != nil || page.Len() != 0 {
		t.Fatalf("empty reply: page %+v, err %v; want an empty page", page, err)
	}
	if _, err := g.Execute("pcorrelated 0"); err == nil {
		t.Fatal("pcorrelated 0 accepted")
	}
	if _, err := g.Execute("pcorrelated 1 2"); err == nil {
		t.Fatal("pcorrelated with two counts accepted")
	}
}

// pageFrames re-renders a decoded page frame by frame — the stream
// correlatedPage produces, with the boundaries kept: the two format
// definitions, the head frame, then each half's frames.
func pageFrames(t *testing.T, page *E2EColumns, frameRows int) (defs, head []byte, halves [2][][]byte) {
	t.Helper()
	defs = halfPlan.Format().AppendDef(headPlan.Format().AppendDef(nil))
	tags := make(pageHead, page.Len())
	for i, seq := range page.Seqs {
		if tags[i] = seq << 1; page.Flows[i] != page.Client.Flows[i] {
			tags[i] |= 1
		}
	}
	head, _, err := headPlan.AppendCompressedColumnsFrame(nil, tags)
	if err != nil {
		t.Fatal(err)
	}
	for side, half := range [...]*core.RecordColumns{&page.Client, &page.Server} {
		for lo := 0; lo < page.Len(); lo += frameRows {
			var chunk core.RecordColumns
			for i := lo; i < min(lo+frameRows, page.Len()); i++ {
				chunk.AppendRow(half.Row(i))
			}
			frame, _, err := halfPlan.AppendCompressedColumnsFrame(nil, runCoded{&chunk})
			if err != nil {
				t.Fatal(err)
			}
			halves[side] = append(halves[side], frame)
		}
	}
	return defs, head, halves
}

// replyFrontend is a one-shard frontend whose shard answers every query
// with the given payload.
func replyFrontend(t *testing.T, payload string) *Frontend {
	t.Helper()
	fe, err := NewFrontend([]string{"0"}, WithDialFunc(func(string) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go func() {
			defer c2.Close()
			lineproto.ServeConn(c2, func(string) (string, error) { return payload, nil })
		}()
		return c1, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	return fe
}

// bombFrame hand-builds a 0x05 frame of the given format claiming rows
// rows in a few bytes: every integer column one run-length run of zeros,
// every string column a one-entry dictionary and one run.
func bombFrame(f *pbio.Format, rows int) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte{0x05}, f.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
	for _, fld := range f.Fields {
		if fld.Kind == pbio.KindString {
			buf = append(buf, pbio.ColEncDict, 1, 0, 0, 0, 0) // dictionary: one empty string
		} else {
			buf = append(buf, pbio.ColEncRLE)
		}
		buf = binary.AppendUvarint(buf, uint64(rows))
		buf = append(buf, 0)
	}
	return buf
}

// TestHostilePages: every malformed or malicious shard reply is an error
// — never a panic, never memory ahead of the bytes delivered.
func TestHostilePages(t *testing.T) {
	_, raw := realPage(t, 24, 0, 8)
	page, err := decodeCorrelatedPage(b64(raw))
	if err != nil {
		t.Fatal(err)
	}
	defs, head, halves := pageFrames(t, page, 8)
	client, server := halves[0], halves[1]
	cat := func(parts ...[]byte) string { return b64(bytes.Join(parts, nil)) }
	if cat(defs, head, client[0], client[1], client[2], server[0], server[1], server[2]) != b64(raw) {
		t.Fatal("fixture frames do not reassemble into the page the shard rendered")
	}
	foreign := append([]byte(nil), client[0]...)
	binary.LittleEndian.PutUint32(foreign[1:], 99) // a format id the stream never defined
	hugeHead := binary.LittleEndian.AppendUint32([]byte{0x05}, headPlan.Format().ID)
	hugeHead = append(binary.LittleEndian.AppendUint32(hugeHead, 1<<20), pbio.ColEncDelta) // 2^20 rows over 10 bytes
	bomb := bombFrame(halfPlan.Format(), maxPageRows)

	cases := map[string]string{
		"bad base64":                 "!!" + b64(raw),
		"truncated mid-frame":        b64(raw[:len(raw)-9]),
		"no head":                    cat(defs, client[0], client[1], client[2], server[0], server[1], server[2]),
		"client half short":          cat(defs, head, client[0], client[1], server[0], server[1], server[2]),
		"server half short":          cat(defs, head, client[0], client[1], client[2], server[0], server[1]),
		"server half long":           cat(raw, server[2]),
		"foreign format id":          cat(defs, head, foreign, client[1], client[2], server[0], server[1], server[2]),
		"head frame for a half":      cat(defs, head, head, client[1], client[2], server[0], server[1], server[2]),
		"undefined formats":          cat(head, client[0], client[1], client[2], server[0], server[1], server[2]),
		"head claims 2^20 rows":      cat(defs, hugeHead),
		"head bomb past the cap":     cat(defs, bombFrame(headPlan.Format(), maxPageRows+1)),
		"half bomb past the head":    cat(defs, head, bomb, bomb),
		"half bomb in a later frame": cat(defs, head, client[0], bomb, client[2], server[0], server[1], server[2]),
		"trailing garbage":           cat(raw, []byte{0x7f}),
	}
	for name, payload := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		page, err := decodeCorrelatedPage(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to a %d-row page, want an error", name, page.Len())
		}
		// The fixture page is a few KB; a megabyte of allocation means the
		// decoder believed a row count before the bytes backed it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes for a %d-byte reply", name, grew, len(payload))
		}
	}

	// The same refusals hold end to end: a frontend whose shard sends a
	// hostile page fails the query with the shard named, and does not panic.
	fe := replyFrontend(t, cases["half bomb past the head"])
	if _, _, err := fe.CorrelatedSeq(); err == nil || !strings.Contains(err.Error(), "shard 0 reply") {
		t.Fatalf("hostile page through the frontend: err = %v, want a shard 0 reply error", err)
	}
}

// TestPageRowCapIsExact: a page may materialize maxPageRows rows and not
// one more, and the shard refuses to render what no frontend would take.
func TestPageRowCapIsExact(t *testing.T) {
	defs := halfPlan.Format().AppendDef(headPlan.Format().AppendDef(nil))
	over := b64(append(defs, bombFrame(headPlan.Format(), maxPageRows+1)...))
	if _, err := decodeCorrelatedPage(over); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("head of maxPageRows+1 rows: err = %v, want the row limit", err)
	}
	// At the cap the head itself is legal; the reply then owes two halves
	// it does not carry.
	at := b64(append(defs, bombFrame(headPlan.Format(), maxPageRows)...))
	if _, err := decodeCorrelatedPage(at); err == nil || !strings.Contains(err.Error(), "page half after 0") {
		t.Fatalf("head of maxPageRows rows and no halves: err = %v, want a missing-half error", err)
	}
}

// FuzzDecodeCorrelatedPage throws arbitrary pbio streams at the page
// decoders: a shard's one-page reply and LoadDump's page stream.
// Invariants: neither panics, and whatever either accepts is a
// well-formed page — equal-length columns the merge can walk end to end.
func FuzzDecodeCorrelatedPage(f *testing.F) {
	_, raw := realPage(f, 12, 0, pageFrameRows)
	f.Add(raw)
	_, split := realPage(f, 12, 5, 2)
	f.Add(split)
	f.Add(raw[:len(raw)/2])
	f.Add(append(halfPlan.Format().AppendDef(headPlan.Format().AppendDef(nil)), bombFrame(headPlan.Format(), 64)...))
	f.Add([]byte{})
	h := newFedHarness(f, 1, Config{})
	var dump bytes.Buffer
	for seed := int64(1); seed <= 2; seed++ {
		h.overlapWorkload(rand.New(rand.NewSource(seed)), 6)
		if _, err := h.shards[0].DumpAndTruncate(&dump); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(dump.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			t.Skip()
		}
		for _, decode := range [...]func([]byte) (*E2EColumns, error){
			func(raw []byte) (*E2EColumns, error) { return decodeCorrelatedPage(b64(raw)) },
			func(raw []byte) (*E2EColumns, error) { return readPages(bytes.NewReader(raw)) },
		} {
			page, err := decode(raw)
			if err != nil {
				continue
			}
			if err := page.validate(); err != nil {
				t.Fatalf("accepted page fails validation: %v", err)
			}
			if page.Len() == 0 {
				continue
			}
			h := newMergeHead(0, page)
			for _, i := range h.order {
				_, _, _ = page.Flows[i], page.Client.Row(i), page.Server.Row(i)
			}
		}
	})
}

// TestCorrelatedPageConcurrent renders and decodes pages from several
// goroutines while a writer keeps correlating into the same analyzer:
// the pooled scratch is per call and the stripes are read under their
// locks, so every reply decodes to a well-formed page whatever the
// interleaving (the race job runs this with the detector on).
func TestCorrelatedPageConcurrent(t *testing.T) {
	h := newFedHarness(t, 1, Config{MaxCorrelated: 64})
	h.overlapWorkload(rand.New(rand.NewSource(1)), 64)
	g := h.shards[0]
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
				h.overlapWorkload(rng, 8)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				reply, err := g.correlatedPage(r*10, 1+r)
				if err != nil {
					t.Error(err)
					return
				}
				page, err := decodeCorrelatedPage(reply)
				if err != nil {
					t.Error(err)
					return
				}
				if r > 0 && page.Len() > r*10 {
					t.Errorf("tail of %d has %d rows", r*10, page.Len())
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestPageBytesGolden pins the bytes of a fixed history's "pcorrelated"
// replies — the whole history in one frame per half and in 7-row frames,
// and a tail — so a change to how a shard renders its page cannot change
// what it sends. -update rewrites testdata/pcorrelated.golden.
func TestPageBytesGolden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range []struct{ n, frameRows int }{{0, pageFrameRows}, {0, 7}, {13, 5}} {
		_, raw := realPage(t, 40, tc.n, tc.frameRows)
		fmt.Fprintf(&sb, "pcorrelated %d, %d-row frames\n%s\n", tc.n, tc.frameRows, b64(raw))
	}
	got := sb.String()
	path := filepath.Join("testdata", "pcorrelated.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("page bytes differ from %s:\n got: %.400s\nwant: %.400s", path, got, want)
	}
}

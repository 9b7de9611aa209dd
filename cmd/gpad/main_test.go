package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/simnet"
)

// TestIngestFrameAccountsUnknown pins the receive loop's dispatch: the
// two shapes the dissemination channels carry are ingested, and a frame
// that decoded to anything else — here the value-less record a publisher
// with a mismatched interaction format produces — is counted, once per
// frame whatever its rows, and logged once per type instead of vanishing.
func TestIngestFrameAccountsUnknown(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)

	g := gpa.New(gpa.Config{}, func() time.Duration { return 0 })
	var unknown unknownFrames

	cols := core.NewRecordColumns(1)
	cols.Append(&core.Record{ID: 1, Node: 1, Class: "port:80"})
	ingestFrame(g, &pbio.Record{Format: "sysprof.interaction", Value: cols}, &unknown)
	ingestFrame(g, &pbio.Record{Format: "sysprof.aggregate", Value: []dissem.WireAggregate{
		{Node: 2, Aggregate: core.Aggregate{Class: "db", Count: 3}},
		{Node: 3, Aggregate: core.Aggregate{Class: "db", Count: 1}},
	}}, &unknown)
	if st := g.StatsSnapshot(); st.Ingested != 3 || unknown.total.Load() != 0 {
		t.Fatalf("known frames: ingested %d, unknown %d; want 3, 0", st.Ingested, unknown.total.Load())
	}

	// Three frames of three rows each from a publisher whose interaction
	// format has other fields.
	type oldRecord struct{ ID uint64 }
	sreg := pbio.NewRegistry()
	sreg.MustRegister("sysprof.interaction", oldRecord{})
	p, rows := pbio.StructColumns(sreg, []oldRecord{{1}, {2}, {3}})
	frame, _, err := p.AppendColumnsFrame(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	rreg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(rreg); err != nil {
		t.Fatal(err)
	}
	dec := pbio.NewDecoder(bytes.NewReader(append(p.Format().AppendDef(nil), bytes.Repeat(frame, 3)...)), rreg)
	for i := 0; i < 3; i++ {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		ingestFrame(g, rec, &unknown)
	}
	ingestFrame(g, &pbio.Record{Format: "other", Value: &struct{ X int }{1}}, &unknown)
	if got := unknown.total.Load(); got != 4 {
		t.Fatalf("unknown frames counted %d, want 4", got)
	}
	if st := g.StatsSnapshot(); st.Ingested != 3 {
		t.Fatalf("unknown frames reached the analyzer: ingested %d", st.Ingested)
	}
	if n := strings.Count(logged.String(), "dropping frames decoded as"); n != 2 {
		t.Fatalf("logged %d times, want once per decoded type (2):\n%s", n, logged.String())
	}
}

// TestDumpCountIsRowsWritten races ingest against dumpTo: the count gpad
// logs must be the number of interactions that dump appended, not the
// size of a second snapshot taken a moment earlier or later.
func TestDumpCountIsRowsWritten(t *testing.T) {
	g := gpa.New(gpa.Config{MaxCorrelated: 4096}, func() time.Duration { return 0 })
	flow := simnet.FlowKey{Src: simnet.Addr{Node: 1, Port: 1000}, Dst: simnet.Addr{Node: 2, Port: 80}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(1); ; id += 2 {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Duration(id) * time.Millisecond
			g.Ingest(core.Record{ID: id, Node: 1, Flow: flow, Start: start, End: start + 10*time.Millisecond})
			g.Ingest(core.Record{ID: id + 1, Node: 2, Flow: flow, Start: start + time.Millisecond, End: start + 8*time.Millisecond})
		}
	}()
	defer func() { close(stop); <-done }()

	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		path := filepath.Join(dir, fmt.Sprintf("dump-%d", i))
		n, err := dumpTo(g, path, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		if rows := loadDump(t, path); rows != n {
			t.Fatalf("dump %d: dumpTo reported %d interactions, file has %d", i, n, rows)
		}
	}
}

// TestShutdownDumpHoldsWhatTheSummaryCounts stops gpad while a loopback
// broker is still publishing correlatable pairs at it: the final summary
// and the dump are taken after the readers have returned, so the dump
// has exactly the pairs the summary says the history retains — not the
// ones a reader still blocked in Recv slipped in between or after the
// two — and every pair correlated is either retained or counted evicted
// by the per-stripe history cap.
func TestShutdownDumpHoldsWhatTheSummaryCounts(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(new(bytes.Buffer))

	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	// A queue deeper than the publisher below fills before gpad stops:
	// nothing is shed or refused, and there is always a frame in flight.
	b := pubsub.NewBroker(reg, pubsub.WithQueueDepth(1<<16))
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(l)

	dump := filepath.Join(t.TempDir(), "dump")
	sig := make(chan os.Signal, 1)
	var out bytes.Buffer
	ran := make(chan error, 1)
	go func() {
		ran <- run(options{
			addrs: []string{l.Addr().String()}, interval: time.Hour,
			dumpPath: dump, maxCorrelated: 1 << 18, wireCompress: true,
		}, sig, &out)
	}()
	for deadline := time.Now().Add(5 * time.Second); len(b.Subscribers()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gpad never subscribed")
		}
	}

	stop, published := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(published)
		flow := simnet.FlowKey{Src: simnet.Addr{Node: 1, Port: 1000}, Dst: simnet.Addr{Node: 2, Port: 80}}
		cols := core.NewRecordColumns(16)
		for id := uint64(1); ; {
			select {
			case <-stop:
				return
			default:
			}
			cols.Reset()
			for i := 0; i < 8; i, id = i+1, id+2 {
				start := time.Duration(id) * time.Microsecond
				cols.Append(&core.Record{ID: id, Node: 1, Flow: flow, Start: start, End: start + 10*time.Microsecond})
				cols.Append(&core.Record{ID: id + 1, Node: 2, Flow: flow, Start: start + time.Microsecond, End: start + 8*time.Microsecond})
			}
			if err := b.PublishColumns(dissem.ChannelInteractions, cols); err != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	sig <- os.Interrupt
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-published

	m := regexp.MustCompile(`correlated=(\d+) retained=(\d+) evicted=(\d+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary printed:\n%s", out.String())
	}
	correlated, _ := strconv.Atoi(m[1])
	retained, _ := strconv.Atoi(m[2])
	evicted, _ := strconv.Atoi(m[3])
	if correlated != retained+evicted {
		t.Fatalf("summary counts %d correlated pairs, %d retained and %d evicted", correlated, retained, evicted)
	}
	if rows := loadDump(t, dump); retained == 0 || rows != retained {
		t.Fatalf("summary counts %d retained pairs, the dump holds %d", retained, rows)
	}
}

// loadDump reads a dump file back and returns how many interactions it
// holds.
func loadDump(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := gpa.LoadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

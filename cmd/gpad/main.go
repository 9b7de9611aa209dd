// Command gpad runs the Global Performance Analyzer as a standalone
// process: it subscribes to one or more sysprofd pub-sub endpoints over
// TCP, correlates the interaction records they publish, and periodically
// prints per-node load summaries and (optionally) dumps correlated
// end-to-end interactions as the page stream gpa.LoadDump reads back.
//
// Retention: -max-correlated and -max-correlated-age bound the in-memory
// correlated history for long runs; with -dump set, -dump-interval
// periodically appends the history to the dump file and truncates it
// from memory (dump-and-truncate), so nothing is lost to the caps.
//
// Federation: a single gpad is the aggregation point for every monitored
// node; to scale past one process, run N shard analyzers plus a frontend.
//
//	-shard i/N     subscribe to flow-hash shard i of N: the broker routes
//	               each record by its canonical flow hash, so both
//	               endpoints of an interaction reach the same shard and
//	               correlation stays process-local.
//	-frontend a,b  run only the merge frontend over the listed shard
//	               query endpoints (no subscriptions); -query serves the
//	               merged federation query protocol. A dead shard
//	               degrades queries to partial results with an explicit
//	               staleness marker instead of failing them.
//
// Usage:
//
//	gpad [-subscribe host:port,host:port] [-interval 2s] [-dump file]
//	     [-max-correlated n] [-max-correlated-age d] [-dump-interval d]
//	     [-shard i/N] [-query addr] [-wire-compress=false]
//	gpad -frontend shard0:port,shard1:port [-query addr] [-interval 2s]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/lineproto"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
)

func main() {
	var opts options
	subscribe := flag.String("subscribe", "127.0.0.1:8071", "comma-separated sysprofd pub-sub addresses")
	flag.DurationVar(&opts.interval, "interval", 2*time.Second, "summary print interval")
	flag.StringVar(&opts.dumpPath, "dump", "", "append correlated interactions (pages gpa.LoadDump reads) to this file on exit")
	flag.StringVar(&opts.queryAddr, "query", "", "serve the GPA query protocol on this TCP address (e.g. 127.0.0.1:8073)")
	flag.IntVar(&opts.maxCorrelated, "max-correlated", 1<<18, "cap on in-memory correlated interactions (0 = unbounded)")
	flag.DurationVar(&opts.maxCorrelatedAge, "max-correlated-age", 0, "evict correlated interactions older than this (0 = no age bound)")
	flag.DurationVar(&opts.dumpInterval, "dump-interval", 0, "with -dump: periodically dump-and-truncate the correlated history (0 = only on exit)")
	shard := flag.String("shard", "", "subscribe as flow-hash shard i/N of a federated gpad tier (e.g. 0/4)")
	frontend := flag.String("frontend", "", "run the federation merge frontend over these comma-separated shard query endpoints")
	flag.BoolVar(&opts.wireCompress, "wire-compress", true, "request per-column compressed frames from the broker")
	flag.Parse()
	opts.addrs = lineproto.SplitList(*subscribe)
	var err error
	if opts.shardIndex, opts.shardCount, err = parseShard(*shard); err != nil {
		fmt.Fprintln(os.Stderr, "gpad:", err)
		os.Exit(2)
	}
	if *frontend != "" {
		if *shard != "" {
			fmt.Fprintln(os.Stderr, "gpad: -frontend and -shard are mutually exclusive")
			os.Exit(2)
		}
		err = runFrontend(lineproto.SplitList(*frontend), opts)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		err = run(opts, sig, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpad:", err)
		os.Exit(1)
	}
}

type options struct {
	addrs            []string
	interval         time.Duration
	dumpPath         string
	queryAddr        string
	maxCorrelated    int
	maxCorrelatedAge time.Duration
	dumpInterval     time.Duration
	// shardCount > 0 marks this process as shard shardIndex/shardCount of
	// a federated tier: subscriptions carry the selector so the broker
	// only sends this shard's flows.
	shardIndex int
	shardCount int
	// wireCompress asks the broker for per-column compressed (0x05)
	// frames on the subscription links.
	wireCompress bool
}

// parseShard parses "-shard i/N" ("" = unsharded).
func parseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/N, e.g. 0/4)", s)
	}
	index, err = strconv.Atoi(i)
	if err == nil {
		count, err = strconv.Atoi(n)
	}
	if err != nil || count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/N with 0 <= i < N)", s)
	}
	return index, count, nil
}

// runFrontend runs the federation merge frontend: no subscriptions, just
// the merged query protocol plus periodic merged summaries.
func runFrontend(endpoints []string, opts options) error {
	fe, err := gpa.NewFrontend(endpoints)
	if err != nil {
		return err
	}
	defer fe.Close()
	if opts.queryAddr != "" {
		ql, err := net.Listen("tcp", opts.queryAddr)
		if err != nil {
			return fmt.Errorf("query listen: %w", err)
		}
		defer ql.Close()
		go fe.Serve(ql)
		log.Printf("federation query protocol on %s (%d shards)", opts.queryAddr, len(endpoints))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(opts.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			sum, st, err := fe.StatsSnapshot()
			if err != nil {
				log.Printf("federation: %v", err)
				continue
			}
			marker := ""
			if st.Partial {
				marker = fmt.Sprintf(" [partial: %d/%d shards]", st.Shards-len(st.Dead), st.Shards)
			}
			fmt.Printf("federation: ingested=%d correlated=%d pending=%d%s\n",
				sum.Ingested, sum.Correlated, sum.Pending, marker)
		case <-sig:
			if opts.dumpPath != "" {
				f, err := os.OpenFile(opts.dumpPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return err
				}
				st, err := fe.Dump(f)
				f.Close()
				if err != nil {
					return err
				}
				if st.Partial {
					log.Printf("dump is partial: shards %v did not answer", st.Dead)
				}
			}
			return nil
		}
	}
}

// run subscribes, ingests and reports until a value arrives on sig. The
// final summary and dump are taken only after every reader has returned,
// so what they show is what was ingested.
func run(opts options, sig <-chan os.Signal, out io.Writer) error {
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return err
	}
	start := time.Now()
	g := gpa.New(gpa.Config{
		MaxCorrelated:    opts.maxCorrelated,
		MaxCorrelatedAge: opts.maxCorrelatedAge,
	}, func() time.Duration { return time.Since(start) })

	if opts.queryAddr != "" {
		ql, err := net.Listen("tcp", opts.queryAddr)
		if err != nil {
			return fmt.Errorf("query listen: %w", err)
		}
		defer ql.Close()
		go g.Serve(ql)
		log.Printf("query protocol on %s", opts.queryAddr)
	}

	var wg sync.WaitGroup
	var unknown unknownFrames
	var subs []*pubsub.Subscriber
	stop := make(chan struct{})
	for _, addr := range opts.addrs {
		d := pubsub.Dialer{Registry: reg, Compress: opts.wireCompress}
		if opts.shardCount > 0 {
			d.Shard, d.Of = opts.shardIndex, opts.shardCount
		}
		sub, err := d.Dial(addr, dissem.ChannelInteractions, dissem.ChannelAggregates)
		if err != nil {
			return fmt.Errorf("subscribe %s: %w", addr, err)
		}
		if opts.shardCount > 0 {
			log.Printf("subscribed to %s as shard %d/%d", addr, opts.shardIndex, opts.shardCount)
		} else {
			log.Printf("subscribed to %s", addr)
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func(addr string, sub *pubsub.Subscriber) {
			defer wg.Done()
			defer sub.Close()
			for {
				_, rec, err := sub.Recv()
				if err != nil {
					select {
					case <-stop: // shutdown closed the subscriber under Recv
					default:
						log.Printf("%s: stream ended: %v", addr, err)
					}
					return
				}
				ingestFrame(g, rec, &unknown)
			}
		}(addr, sub)
	}

	ticker := time.NewTicker(opts.interval)
	defer ticker.Stop()
	var dumpTick <-chan time.Time
	if opts.dumpPath != "" && opts.dumpInterval > 0 {
		dt := time.NewTicker(opts.dumpInterval)
		defer dt.Stop()
		dumpTick = dt.C
	}
	for {
		select {
		case <-ticker.C:
			printSummary(out, g, &unknown)
		case <-dumpTick:
			n, err := dumpTo(g, opts.dumpPath, true)
			if err != nil {
				return err
			}
			log.Printf("dumped and truncated %d correlated interactions to %s", n, opts.dumpPath)
		case <-sig:
			// A reader blocked in Recv sees nothing but its connection
			// closing; wait for all of them before looking at the GPA.
			close(stop)
			for _, sub := range subs {
				sub.Close()
			}
			wg.Wait()
			printSummary(out, g, &unknown)
			if opts.dumpPath != "" {
				n, err := dumpTo(g, opts.dumpPath, opts.dumpInterval > 0)
				if err != nil {
					return err
				}
				log.Printf("dumped %d correlated interactions to %s", n, opts.dumpPath)
			}
			return nil
		}
	}
}

// unknownFrames accounts for frames that decoded to neither of the two
// shapes the dissemination channels carry — e.g. a frame whose format
// does not match the local one, which decodes to no value. They are
// counted, one per frame, and logged once per decoded type, instead of
// vanishing.
type unknownFrames struct {
	total atomic.Uint64
	seen  sync.Map // decoded type -> struct{}: log each once
}

func (u *unknownFrames) note(rec *pbio.Record) {
	u.total.Add(1)
	kind := fmt.Sprintf("%T (format %q)", rec.Value, rec.Format)
	if _, logged := u.seen.LoadOrStore(kind, struct{}{}); !logged {
		log.Printf("dropping frames decoded as %s: neither a columnar interaction batch nor an aggregate", kind)
	}
}

// ingestFrame feeds one received frame to the analyzer: a columnar
// interaction batch or a batch of aggregate deltas. Anything else is
// accounted in unknown.
func ingestFrame(g *gpa.GPA, rec *pbio.Record, unknown *unknownFrames) {
	switch w := rec.Value.(type) {
	case *core.RecordColumns:
		g.IngestColumns(w)
	case []dissem.WireAggregate:
		for i := range w {
			g.IngestAggregate(w[i].Node, w[i].Aggregate)
		}
	default:
		unknown.note(rec)
	}
}

// printSummary prints the analyzer's status line and its per-node load.
// correlated= counts every pair ever correlated; retained= is what the
// in-memory history holds now, and so what a dump writes; evicted= is what
// the retention policy (the history cap, the age bound, a truncating dump)
// dropped: correlated = retained + evicted.
func printSummary(out io.Writer, g *gpa.GPA, unknown *unknownFrames) {
	st := g.StatsSnapshot()
	fmt.Fprintf(out, "gpa: ingested=%d correlated=%d retained=%d evicted=%d pending=%d unknown_frames=%d\n",
		st.Ingested, st.Correlated, st.Correlated-st.CorrelatedEvicted, st.CorrelatedEvicted,
		g.PendingCount(), unknown.total.Load())
	for _, node := range g.Nodes() {
		l := g.ServerLoad(node)
		fmt.Fprintf(out, "  node %d: %d interactions/window, mean residence %v, mean buffer wait %v\n",
			node, l.Interactions, l.MeanResidence, l.MeanBufferWait)
	}
}

// dumpTo appends the correlated history to path. With truncate set it
// uses DumpAndTruncate, clearing the in-memory history after writing —
// used for periodic dumps (and the final dump when periodic dumping is
// on, so the last batch is not re-appended on top of earlier ones).
func dumpTo(g *gpa.GPA, path string, truncate bool) (int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if truncate {
		return g.DumpAndTruncate(f)
	}
	return g.Dump(f)
}

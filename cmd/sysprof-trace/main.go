// Command sysprof-trace inspects and re-analyzes SysProf event traces
// recorded by sysprofd -trace: PBIO streams of kprof.Event batches, one
// compressed columnar frame per batch.
//
// Usage:
//
//	sysprof-trace -mode dump   file    # print every event
//	sysprof-trace -mode stats  file    # per-type and per-node counts
//	sysprof-trace -mode replay file    # rebuild interaction records offline
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
	"sysprof/internal/trace"
)

func main() {
	mode := flag.String("mode", "stats", "dump, stats, or replay")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sysprof-trace [-mode dump|stats|replay] <trace file>")
		os.Exit(2)
	}
	if err := run(*mode, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "sysprof-trace:", err)
		os.Exit(1)
	}
}

func run(mode, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch mode {
	case "dump":
		return dump(f)
	case "stats":
		return stats(f)
	case "replay":
		return replay(f)
	}
	return fmt.Errorf("unknown mode %q", mode)
}

func dump(f *os.File) error {
	_, err := trace.Replay(f, func(ev *kprof.Event) error {
		fmt.Printf("%12v node=%d cpu=%d %-14s pid=%-4d", ev.Time, ev.Node, ev.CPU, ev.Type, ev.PID)
		if ev.Flow != (simnet.FlowKey{}) {
			fmt.Printf(" flow=%s bytes=%d", ev.Flow, ev.Bytes)
		}
		if ev.Proc != "" {
			fmt.Printf(" proc=%s", ev.Proc)
		}
		if ev.Tag != 0 {
			fmt.Printf(" tag=%d", ev.Tag)
		}
		fmt.Println()
		return nil
	})
	return err
}

func stats(f *os.File) error {
	byType := map[kprof.EventType]int{}
	byNode := map[simnet.NodeID]int{}
	var first, last time.Duration
	n, err := trace.Replay(f, func(ev *kprof.Event) error {
		byType[ev.Type]++
		byNode[ev.Node]++
		if byType[ev.Type] == 1 && len(byType) == 1 {
			first = ev.Time
		}
		last = ev.Time
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d events over %v of node time\n\n", n, last-first)
	types := make([]kprof.EventType, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return byType[types[i]] > byType[types[j]] })
	for _, t := range types {
		fmt.Printf("  %-15s %8d\n", t, byType[t])
	}
	fmt.Println()
	nodes := make([]simnet.NodeID, 0, len(byNode))
	for id := range byNode {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, id := range nodes {
		fmt.Printf("  node %-3d %8d events\n", id, byNode[id])
	}
	return nil
}

func replay(f *os.File) error {
	lpas := map[simnet.NodeID]*core.LPA{}
	n, err := trace.ReplaySession(f, func(node simnet.NodeID, hub *kprof.Hub) {
		lpas[node] = core.NewLPA(hub, core.Config{WindowSize: 1 << 16})
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d events into %d per-node analyzers\n\n", n, len(lpas))
	nodes := make([]simnet.NodeID, 0, len(lpas))
	for id := range lpas {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, id := range nodes {
		lpa := lpas[id]
		lpa.FlushOpen()
		recs := lpa.Window().Snapshot()
		fmt.Printf("node %d: %d interactions\n", id, len(recs))
		for _, r := range recs {
			fmt.Printf("  %s class=%s user=%v kernel=%v blocked=%v total=%v server=%s\n",
				r.Flow, r.Class,
				r.UserTime.Round(time.Microsecond),
				r.KernelTime().Round(time.Microsecond),
				r.BlockedTime.Round(time.Microsecond),
				r.Residence().Round(time.Microsecond),
				r.ServerProc)
		}
	}
	return nil
}

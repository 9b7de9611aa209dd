package main

import (
	"sync/atomic"
	"time"
)

// processStart anchors every monotonic reading in this process.
var processStart = time.Now()

// mono returns monotonic nanoseconds since process start.
func mono() int64 { return int64(time.Since(processStart)) }

// clockState is one immutable snapshot of a freezable clock: the time
// accumulated over earlier open stretches, and, while running, the
// monotonic reading at which the current stretch opened.
type clockState struct {
	acc     int64
	opened  int64
	running bool
}

// freezableClock is the time base a workload hands to kprof.NewHub and
// gpa.New. It advances only while that workload's measurement window is
// open, so residency, load windows and stale sweeps inside the program see
// no jump across the time other workloads (or the runner's own GC and
// bookkeeping) take. Readers pay one atomic load and one monotonic clock
// read. Open and freeze are called by the runner only while the workload's
// generators are parked and its pipeline is drained, so no reader races a
// transition; under that rule readings never decrease.
type freezableClock struct {
	st atomic.Pointer[clockState]
}

func newFreezableClock() *freezableClock {
	c := &freezableClock{}
	c.st.Store(&clockState{})
	return c
}

// now returns the clock's current reading.
func (c *freezableClock) now() time.Duration {
	st := c.st.Load()
	if !st.running {
		return time.Duration(st.acc)
	}
	return time.Duration(st.acc + mono() - st.opened)
}

// open starts the clock; a no-op when it already runs.
func (c *freezableClock) open() {
	st := c.st.Load()
	if st.running {
		return
	}
	c.st.Store(&clockState{acc: st.acc, opened: mono(), running: true})
}

// freeze stops the clock at its current reading; a no-op when stopped.
func (c *freezableClock) freeze() {
	st := c.st.Load()
	if !st.running {
		return
	}
	c.st.Store(&clockState{acc: st.acc + mono() - st.opened})
}

package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// connCounters sums the socket traffic of every connection one counting
// listener accepted or one counting dialer opened.
type connCounters struct {
	accepted   atomic.Uint64
	reads      atomic.Uint64
	writes     atomic.Uint64
	readBytes  atomic.Uint64
	writeBytes atomic.Uint64
}

// countingListener is handed to Broker.Serve and GPA.Serve in place of the
// real listener, so the benchmark counts the program's socket calls without
// touching the program.
type countingListener struct {
	net.Listener
	c *connCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.c.accepted.Add(1)
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.readBytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.writeBytes.Add(uint64(n))
	return n, err
}

// listenLoopback opens a counting listener on an ephemeral loopback port.
func listenLoopback() (*countingListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &countingListener{Listener: l, c: &connCounters{}}, nil
}

// procIO is the process's read and write system-call counts from
// /proc/self/io. The subscriber side of pubsub dials its own socket, so
// these are the only outside view of how many read(2) calls a record costs.
type procIO struct {
	syscr, syscw uint64
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	var io procIO
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		}
	}
	return io, sc.Err()
}

// cpuClock returns the process's user plus system CPU time in ns: what
// getrusage sums, read from the process CPU clock so that it is exact to
// the nanosecond at every mark. The call cannot fail on Linux with these
// arguments; a zero reading would show as a zero cpu_us_per_op.
func cpuClock() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

package core

import (
	"fmt"
	"time"

	"sysprof/internal/simnet"
)

// RecordColumns is the structure-of-arrays form of a Record batch: one
// contiguous slice per field, in Record declaration order. The batch path
// (dissemination buffers → pbio columnar frames → pub-sub partitioning →
// GPA ingest) moves these instead of []Record so shard routing, filtering,
// and correlation hashing sweep a single cache-linear column instead of
// striding across ~240-byte structs.
//
// The Flow column keeps the four-tuple packed as one 8-byte FlowKey per
// row (the shard-hash sweep wants exactly that); on the wire it expands
// into the four u16 columns Record's flattened format declares.
type RecordColumns struct {
	IDs     []uint64
	Nodes   []simnet.NodeID
	Flows   []simnet.FlowKey
	Classes []string
	CPUs    []uint8

	Starts []time.Duration
	Ends   []time.Duration

	ReqPackets  []int
	ReqBytes    []int
	RespPackets []int
	RespBytes   []int

	ProtoTimes   []time.Duration
	TxTimes      []time.Duration
	BufferWaits  []time.Duration
	SyscallTimes []time.Duration
	UserTimes    []time.Duration
	BlockedTimes []time.Duration

	ServerPIDs  []int32
	ServerProcs []string
	CtxSwitches []uint64
	DiskOps     []uint64
}

// The four typed views list every column that is not one of a kind. What
// is done to every column — Reset, Grow, AppendColumns, CheckRows, and
// through recordWire the two encoders and the decoder — loops over them
// and the four singletons (Nodes, Flows, CPUs, ServerPIDs), so a new
// column is named here once. The per-row moves (AppendRow, CopyRow, Row)
// stay written out: they are the hot path.

func (c *RecordColumns) u64s() [3]*[]uint64 {
	return [...]*[]uint64{&c.IDs, &c.CtxSwitches, &c.DiskOps}
}

func (c *RecordColumns) durs() [8]*[]time.Duration {
	return [...]*[]time.Duration{&c.Starts, &c.Ends, &c.ProtoTimes, &c.TxTimes,
		&c.BufferWaits, &c.SyscallTimes, &c.UserTimes, &c.BlockedTimes}
}

func (c *RecordColumns) ints() [4]*[]int {
	return [...]*[]int{&c.ReqPackets, &c.ReqBytes, &c.RespPackets, &c.RespBytes}
}

func (c *RecordColumns) strs() [2]*[]string {
	return [...]*[]string{&c.Classes, &c.ServerProcs}
}

// NewRecordColumns returns a columnar batch with every column
// preallocated to the given row capacity.
func NewRecordColumns(capacity int) *RecordColumns {
	c := &RecordColumns{}
	c.Grow(capacity)
	return c
}

// Len returns the number of rows.
func (c *RecordColumns) Len() int { return len(c.IDs) }

// Reset truncates every column to zero rows, keeping capacity. Like a
// recycled []Record buffer, previously-held strings stay reachable until
// their slots are overwritten by new rows.
func (c *RecordColumns) Reset() {
	for _, p := range c.u64s() {
		*p = (*p)[:0]
	}
	for _, p := range c.durs() {
		*p = (*p)[:0]
	}
	for _, p := range c.ints() {
		*p = (*p)[:0]
	}
	for _, p := range c.strs() {
		*p = (*p)[:0]
	}
	c.Nodes, c.Flows, c.CPUs, c.ServerPIDs = c.Nodes[:0], c.Flows[:0], c.CPUs[:0], c.ServerPIDs[:0]
}

// Grow ensures capacity for n more rows in every column.
func (c *RecordColumns) Grow(n int) {
	if n <= 0 {
		return
	}
	for _, p := range c.u64s() {
		*p = growSlice(*p, n)
	}
	for _, p := range c.durs() {
		*p = growSlice(*p, n)
	}
	for _, p := range c.ints() {
		*p = growSlice(*p, n)
	}
	for _, p := range c.strs() {
		*p = growSlice(*p, n)
	}
	c.Nodes = growSlice(c.Nodes, n)
	c.Flows = growSlice(c.Flows, n)
	c.CPUs = growSlice(c.CPUs, n)
	c.ServerPIDs = growSlice(c.ServerPIDs, n)
}

func growSlice[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// AppendRow adds one record as a new row — the one record → columns
// move; shard routing and filtering build sub-batches with
// AppendRow(src.Row(j)). In steady state the columns are preallocated
// (LPA buffers to their capacity, partition sub-batches pool-recycled at
// batch capacity), so the row is written in place; only an explicit
// capacity raise (doubling, off the steady-state path) allocates. The
// record travels by value so a caller's row never escapes.
//
//sysprof:nonblocking
func (c *RecordColumns) AppendRow(r Record) {
	i := len(c.IDs)
	if i == cap(c.IDs) {
		c.Grow(max(i, 64))
	}
	c.IDs = c.IDs[:i+1]
	c.IDs[i] = r.ID
	c.Nodes = c.Nodes[:i+1]
	c.Nodes[i] = r.Node
	c.Flows = c.Flows[:i+1]
	c.Flows[i] = r.Flow
	c.Classes = c.Classes[:i+1]
	c.Classes[i] = r.Class
	c.CPUs = c.CPUs[:i+1]
	c.CPUs[i] = r.CPU
	c.Starts = c.Starts[:i+1]
	c.Starts[i] = r.Start
	c.Ends = c.Ends[:i+1]
	c.Ends[i] = r.End
	c.ReqPackets = c.ReqPackets[:i+1]
	c.ReqPackets[i] = r.ReqPackets
	c.ReqBytes = c.ReqBytes[:i+1]
	c.ReqBytes[i] = r.ReqBytes
	c.RespPackets = c.RespPackets[:i+1]
	c.RespPackets[i] = r.RespPackets
	c.RespBytes = c.RespBytes[:i+1]
	c.RespBytes[i] = r.RespBytes
	c.ProtoTimes = c.ProtoTimes[:i+1]
	c.ProtoTimes[i] = r.ProtoTime
	c.TxTimes = c.TxTimes[:i+1]
	c.TxTimes[i] = r.TxTime
	c.BufferWaits = c.BufferWaits[:i+1]
	c.BufferWaits[i] = r.BufferWait
	c.SyscallTimes = c.SyscallTimes[:i+1]
	c.SyscallTimes[i] = r.SyscallTime
	c.UserTimes = c.UserTimes[:i+1]
	c.UserTimes[i] = r.UserTime
	c.BlockedTimes = c.BlockedTimes[:i+1]
	c.BlockedTimes[i] = r.BlockedTime
	c.ServerPIDs = c.ServerPIDs[:i+1]
	c.ServerPIDs[i] = r.ServerPID
	c.ServerProcs = c.ServerProcs[:i+1]
	c.ServerProcs[i] = r.ServerProc
	c.CtxSwitches = c.CtxSwitches[:i+1]
	c.CtxSwitches[i] = r.CtxSwitches
	c.DiskOps = c.DiskOps[:i+1]
	c.DiskOps[i] = r.DiskOps
}

// Append is AppendRow for callers that hold a pointer.
func (c *RecordColumns) Append(r *Record) { c.AppendRow(*r) }

// AppendColumns appends every row of src. Growth routes through Grow,
// so column capacities stay uniform (the invariant AppendRow's in-place
// fast path relies on).
func (c *RecordColumns) AppendColumns(src *RecordColumns) {
	if n := src.Len(); cap(c.IDs)-len(c.IDs) < n {
		c.Grow(n)
	}
	for k, p := range c.u64s() {
		*p = append(*p, *src.u64s()[k]...)
	}
	for k, p := range c.durs() {
		*p = append(*p, *src.durs()[k]...)
	}
	for k, p := range c.ints() {
		*p = append(*p, *src.ints()[k]...)
	}
	for k, p := range c.strs() {
		*p = append(*p, *src.strs()[k]...)
	}
	c.Nodes = append(c.Nodes, src.Nodes...)
	c.Flows = append(c.Flows, src.Flows...)
	c.CPUs = append(c.CPUs, src.CPUs...)
	c.ServerPIDs = append(c.ServerPIDs, src.ServerPIDs...)
}

// CheckRows reports an error unless every column holds exactly n rows —
// what a consumer of a decoded, untrusted batch checks before indexing
// columns in parallel.
func (c *RecordColumns) CheckRows(n int) error {
	var err error
	check := func(l int) {
		if l != n && err == nil {
			err = fmt.Errorf("column holds %d rows, want %d", l, n)
		}
	}
	for _, p := range c.u64s() {
		check(len(*p))
	}
	for _, p := range c.durs() {
		check(len(*p))
	}
	for _, p := range c.ints() {
		check(len(*p))
	}
	for _, p := range c.strs() {
		check(len(*p))
	}
	check(len(c.Nodes))
	check(len(c.Flows))
	check(len(c.CPUs))
	check(len(c.ServerPIDs))
	return err
}

// Row materializes row i as a Record. No allocation: scalar columns are
// copied, string columns share their backing bytes.
//
//sysprof:nonblocking
func (c *RecordColumns) Row(i int) Record {
	return Record{
		ID: c.IDs[i], Node: c.Nodes[i], Flow: c.Flows[i],
		Class: c.Classes[i], CPU: c.CPUs[i],
		Start: c.Starts[i], End: c.Ends[i],
		ReqPackets: c.ReqPackets[i], ReqBytes: c.ReqBytes[i],
		RespPackets: c.RespPackets[i], RespBytes: c.RespBytes[i],
		ProtoTime: c.ProtoTimes[i], TxTime: c.TxTimes[i],
		BufferWait: c.BufferWaits[i], SyscallTime: c.SyscallTimes[i],
		UserTime: c.UserTimes[i], BlockedTime: c.BlockedTimes[i],
		ServerPID: c.ServerPIDs[i], ServerProc: c.ServerProcs[i],
		CtxSwitches: c.CtxSwitches[i], DiskOps: c.DiskOps[i],
	}
}

// CopyRow writes row i into dst, overwriting every field — the in-place
// form of Row for consumers that already hold the destination slot (the
// GPA's vectorized correlation fills matched pairs directly into the
// correlated history, skipping the stack temporaries a Row round trip
// would copy through).
//
//sysprof:nonblocking
func (c *RecordColumns) CopyRow(dst *Record, i int) {
	dst.ID = c.IDs[i]
	dst.Node = c.Nodes[i]
	dst.Flow = c.Flows[i]
	dst.Class = c.Classes[i]
	dst.CPU = c.CPUs[i]
	dst.Start = c.Starts[i]
	dst.End = c.Ends[i]
	dst.ReqPackets = c.ReqPackets[i]
	dst.ReqBytes = c.ReqBytes[i]
	dst.RespPackets = c.RespPackets[i]
	dst.RespBytes = c.RespBytes[i]
	dst.ProtoTime = c.ProtoTimes[i]
	dst.TxTime = c.TxTimes[i]
	dst.BufferWait = c.BufferWaits[i]
	dst.SyscallTime = c.SyscallTimes[i]
	dst.UserTime = c.UserTimes[i]
	dst.BlockedTime = c.BlockedTimes[i]
	dst.ServerPID = c.ServerPIDs[i]
	dst.ServerProc = c.ServerProcs[i]
	dst.CtxSwitches = c.CtxSwitches[i]
	dst.DiskOps = c.DiskOps[i]
}

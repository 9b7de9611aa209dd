package core

import (
	"encoding/binary"
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

// RecordWireFields is the number of wire fields a record flattens into
// (the Flow column expands to four u16 fields on the wire). It must match
// the "sysprof.interaction" format's field count.
const RecordWireFields = 24

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
	c.IDs = c.IDs[:0]
	c.Nodes = c.Nodes[:0]
	c.Flows = c.Flows[:0]
	c.Classes = c.Classes[:0]
	c.CPUs = c.CPUs[:0]
	c.Starts = c.Starts[:0]
	c.Ends = c.Ends[:0]
	c.ReqPackets = c.ReqPackets[:0]
	c.ReqBytes = c.ReqBytes[:0]
	c.RespPackets = c.RespPackets[:0]
	c.RespBytes = c.RespBytes[:0]
	c.ProtoTimes = c.ProtoTimes[:0]
	c.TxTimes = c.TxTimes[:0]
	c.BufferWaits = c.BufferWaits[:0]
	c.SyscallTimes = c.SyscallTimes[:0]
	c.UserTimes = c.UserTimes[:0]
	c.BlockedTimes = c.BlockedTimes[:0]
	c.ServerPIDs = c.ServerPIDs[:0]
	c.ServerProcs = c.ServerProcs[:0]
	c.CtxSwitches = c.CtxSwitches[:0]
	c.DiskOps = c.DiskOps[:0]
}

// Grow ensures capacity for n more rows in every column.
func (c *RecordColumns) Grow(n int) {
	if n <= 0 {
		return
	}
	c.IDs = growSlice(c.IDs, n)
	c.Nodes = growSlice(c.Nodes, n)
	c.Flows = growSlice(c.Flows, n)
	c.Classes = growSlice(c.Classes, n)
	c.CPUs = growSlice(c.CPUs, n)
	c.Starts = growSlice(c.Starts, n)
	c.Ends = growSlice(c.Ends, n)
	c.ReqPackets = growSlice(c.ReqPackets, n)
	c.ReqBytes = growSlice(c.ReqBytes, n)
	c.RespPackets = growSlice(c.RespPackets, n)
	c.RespBytes = growSlice(c.RespBytes, n)
	c.ProtoTimes = growSlice(c.ProtoTimes, n)
	c.TxTimes = growSlice(c.TxTimes, n)
	c.BufferWaits = growSlice(c.BufferWaits, n)
	c.SyscallTimes = growSlice(c.SyscallTimes, n)
	c.UserTimes = growSlice(c.UserTimes, n)
	c.BlockedTimes = growSlice(c.BlockedTimes, n)
	c.ServerPIDs = growSlice(c.ServerPIDs, n)
	c.ServerProcs = growSlice(c.ServerProcs, n)
	c.CtxSwitches = growSlice(c.CtxSwitches, n)
	c.DiskOps = growSlice(c.DiskOps, n)
}

func growSlice[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// Append adds one record as a new row. In steady state the columns are
// preallocated to the buffer capacity, so the row is written in place;
// only an explicit capacity raise (doubling, off the steady-state path)
// allocates.
//
//sysprof:nonblocking
//sysprof:noalloc
func (c *RecordColumns) Append(r *Record) {
	i := len(c.IDs)
	if i == cap(c.IDs) {
		grow := i
		if grow < 64 {
			grow = 64
		}
		//lint:ignore hotalloc capacity raise: doubles the columns when the preallocated buffer capacity is exceeded, never on the steady-state path
		c.Grow(grow)
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

// AppendColumns appends every row of src. Growth routes through Grow,
// so column capacities stay uniform (the invariant Append's in-place
// fast path relies on).
func (c *RecordColumns) AppendColumns(src *RecordColumns) {
	if n := src.Len(); cap(c.IDs)-len(c.IDs) < n {
		c.Grow(n)
	}
	c.IDs = append(c.IDs, src.IDs...)
	c.Nodes = append(c.Nodes, src.Nodes...)
	c.Flows = append(c.Flows, src.Flows...)
	c.Classes = append(c.Classes, src.Classes...)
	c.CPUs = append(c.CPUs, src.CPUs...)
	c.Starts = append(c.Starts, src.Starts...)
	c.Ends = append(c.Ends, src.Ends...)
	c.ReqPackets = append(c.ReqPackets, src.ReqPackets...)
	c.ReqBytes = append(c.ReqBytes, src.ReqBytes...)
	c.RespPackets = append(c.RespPackets, src.RespPackets...)
	c.RespBytes = append(c.RespBytes, src.RespBytes...)
	c.ProtoTimes = append(c.ProtoTimes, src.ProtoTimes...)
	c.TxTimes = append(c.TxTimes, src.TxTimes...)
	c.BufferWaits = append(c.BufferWaits, src.BufferWaits...)
	c.SyscallTimes = append(c.SyscallTimes, src.SyscallTimes...)
	c.UserTimes = append(c.UserTimes, src.UserTimes...)
	c.BlockedTimes = append(c.BlockedTimes, src.BlockedTimes...)
	c.ServerPIDs = append(c.ServerPIDs, src.ServerPIDs...)
	c.ServerProcs = append(c.ServerProcs, src.ServerProcs...)
	c.CtxSwitches = append(c.CtxSwitches, src.CtxSwitches...)
	c.DiskOps = append(c.DiskOps, src.DiskOps...)
}

// AppendRowOf appends row j of src — the column-sweep partitioning
// primitive (shard routing and filtering build sub-batches with it).
// Like Append, the steady-state path writes in place: partition
// sub-batches are pool-recycled at batch capacity, so growth happens
// on first use only.
//
//sysprof:nonblocking
//sysprof:noalloc
func (c *RecordColumns) AppendRowOf(src *RecordColumns, j int) {
	i := len(c.IDs)
	if i == cap(c.IDs) {
		grow := i
		if grow < 64 {
			grow = 64
		}
		//lint:ignore hotalloc capacity raise on a recycled sub-batch's first fill; never on the steady-state path
		c.Grow(grow)
	}
	c.IDs = c.IDs[:i+1]
	c.IDs[i] = src.IDs[j]
	c.Nodes = c.Nodes[:i+1]
	c.Nodes[i] = src.Nodes[j]
	c.Flows = c.Flows[:i+1]
	c.Flows[i] = src.Flows[j]
	c.Classes = c.Classes[:i+1]
	c.Classes[i] = src.Classes[j]
	c.CPUs = c.CPUs[:i+1]
	c.CPUs[i] = src.CPUs[j]
	c.Starts = c.Starts[:i+1]
	c.Starts[i] = src.Starts[j]
	c.Ends = c.Ends[:i+1]
	c.Ends[i] = src.Ends[j]
	c.ReqPackets = c.ReqPackets[:i+1]
	c.ReqPackets[i] = src.ReqPackets[j]
	c.ReqBytes = c.ReqBytes[:i+1]
	c.ReqBytes[i] = src.ReqBytes[j]
	c.RespPackets = c.RespPackets[:i+1]
	c.RespPackets[i] = src.RespPackets[j]
	c.RespBytes = c.RespBytes[:i+1]
	c.RespBytes[i] = src.RespBytes[j]
	c.ProtoTimes = c.ProtoTimes[:i+1]
	c.ProtoTimes[i] = src.ProtoTimes[j]
	c.TxTimes = c.TxTimes[:i+1]
	c.TxTimes[i] = src.TxTimes[j]
	c.BufferWaits = c.BufferWaits[:i+1]
	c.BufferWaits[i] = src.BufferWaits[j]
	c.SyscallTimes = c.SyscallTimes[:i+1]
	c.SyscallTimes[i] = src.SyscallTimes[j]
	c.UserTimes = c.UserTimes[:i+1]
	c.UserTimes[i] = src.UserTimes[j]
	c.BlockedTimes = c.BlockedTimes[:i+1]
	c.BlockedTimes[i] = src.BlockedTimes[j]
	c.ServerPIDs = c.ServerPIDs[:i+1]
	c.ServerPIDs[i] = src.ServerPIDs[j]
	c.ServerProcs = c.ServerProcs[:i+1]
	c.ServerProcs[i] = src.ServerProcs[j]
	c.CtxSwitches = c.CtxSwitches[:i+1]
	c.CtxSwitches[i] = src.CtxSwitches[j]
	c.DiskOps = c.DiskOps[:i+1]
	c.DiskOps[i] = src.DiskOps[j]
}

// Row materializes row i as a Record. No allocation: scalar columns are
// copied, string columns share their backing bytes.
//
//sysprof:nonblocking
//sysprof:noalloc
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
//sysprof:noalloc
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

// --- wire encoding ---
//
// The helpers below emit the exact bytes the flat record format puts on
// the wire (little-endian, strings length-prefixed with u32), so pbio can
// build columnar frames from a RecordColumns without reflection.
// Field indices follow Record's flattened declaration order; see
// RecordWireFields.

func appendWireString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendColumn appends wire field `field`'s value for every row — one
// contiguous column sweep.
func (c *RecordColumns) AppendColumn(buf []byte, field int) []byte {
	n := c.Len()
	switch field {
	case 0: // ID u64
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, c.IDs[i])
		}
	case 1: // Node u16
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c.Nodes[i]))
		}
	case 2: // Flow.Src.Node u16
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c.Flows[i].Src.Node))
		}
	case 3: // Flow.Src.Port u16
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint16(buf, c.Flows[i].Src.Port)
		}
	case 4: // Flow.Dst.Node u16
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(c.Flows[i].Dst.Node))
		}
	case 5: // Flow.Dst.Port u16
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint16(buf, c.Flows[i].Dst.Port)
		}
	case 6: // Class string
		for i := 0; i < n; i++ {
			buf = appendWireString(buf, c.Classes[i])
		}
	case 7: // CPU u8
		buf = append(buf, c.CPUs...)
	case 8: // Start duration
		buf = appendDurColumn(buf, c.Starts)
	case 9: // End duration
		buf = appendDurColumn(buf, c.Ends)
	case 10: // ReqPackets i64
		buf = appendIntColumn(buf, c.ReqPackets)
	case 11: // ReqBytes i64
		buf = appendIntColumn(buf, c.ReqBytes)
	case 12: // RespPackets i64
		buf = appendIntColumn(buf, c.RespPackets)
	case 13: // RespBytes i64
		buf = appendIntColumn(buf, c.RespBytes)
	case 14: // ProtoTime duration
		buf = appendDurColumn(buf, c.ProtoTimes)
	case 15: // TxTime duration
		buf = appendDurColumn(buf, c.TxTimes)
	case 16: // BufferWait duration
		buf = appendDurColumn(buf, c.BufferWaits)
	case 17: // SyscallTime duration
		buf = appendDurColumn(buf, c.SyscallTimes)
	case 18: // UserTime duration
		buf = appendDurColumn(buf, c.UserTimes)
	case 19: // BlockedTime duration
		buf = appendDurColumn(buf, c.BlockedTimes)
	case 20: // ServerPID i32
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.ServerPIDs[i]))
		}
	case 21: // ServerProc string
		for i := 0; i < n; i++ {
			buf = appendWireString(buf, c.ServerProcs[i])
		}
	case 22: // CtxSwitches u64
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, c.CtxSwitches[i])
		}
	case 23: // DiskOps u64
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, c.DiskOps[i])
		}
	}
	return buf
}

func appendDurColumn(buf []byte, col []time.Duration) []byte {
	for _, v := range col {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func appendIntColumn(buf []byte, col []int) []byte {
	for _, v := range col {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	return buf
}

// NumWireFields implements the pbio column-batch contract.
func (c *RecordColumns) NumWireFields() int { return RecordWireFields }

// Rows implements the pbio column-batch contract.
func (c *RecordColumns) Rows() int { return c.Len() }

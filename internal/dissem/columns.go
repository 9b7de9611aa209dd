package dissem

import (
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// decodeInteractionColumns rebuilds a *core.RecordColumns from a columnar
// "sysprof.interaction" frame. Columns arrive in wire-field order
// (core.Record flattened), so the four flow u16 columns fill successive
// pieces of the packed FlowKey column. Capacity is reserved up to
// pbio.MaxColumnReserve rows; a hostile row count beyond that only grows
// the batch as bytes actually arrive.
func decodeInteractionColumns(cr *pbio.ColumnReader, rows int) (any, error) {
	cols := core.NewRecordColumns(min(rows, pbio.MaxColumnReserve))
	for i := 0; i < rows; i++ {
		v, err := cr.Uint64()
		if err != nil {
			return nil, err
		}
		cols.IDs = append(cols.IDs, v)
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint16()
		if err != nil {
			return nil, err
		}
		cols.Nodes = append(cols.Nodes, simnet.NodeID(v))
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint16()
		if err != nil {
			return nil, err
		}
		cols.Flows = append(cols.Flows, simnet.FlowKey{Src: simnet.Addr{Node: simnet.NodeID(v)}})
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint16()
		if err != nil {
			return nil, err
		}
		cols.Flows[i].Src.Port = v
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint16()
		if err != nil {
			return nil, err
		}
		cols.Flows[i].Dst.Node = simnet.NodeID(v)
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint16()
		if err != nil {
			return nil, err
		}
		cols.Flows[i].Dst.Port = v
	}
	for i := 0; i < rows; i++ {
		v, err := cr.String()
		if err != nil {
			return nil, err
		}
		cols.Classes = append(cols.Classes, v)
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Byte()
		if err != nil {
			return nil, err
		}
		cols.CPUs = append(cols.CPUs, v)
	}
	var err error
	if cols.Starts, err = readDurColumn(cr, cols.Starts, rows); err != nil {
		return nil, err
	}
	if cols.Ends, err = readDurColumn(cr, cols.Ends, rows); err != nil {
		return nil, err
	}
	if cols.ReqPackets, err = readIntColumn(cr, cols.ReqPackets, rows); err != nil {
		return nil, err
	}
	if cols.ReqBytes, err = readIntColumn(cr, cols.ReqBytes, rows); err != nil {
		return nil, err
	}
	if cols.RespPackets, err = readIntColumn(cr, cols.RespPackets, rows); err != nil {
		return nil, err
	}
	if cols.RespBytes, err = readIntColumn(cr, cols.RespBytes, rows); err != nil {
		return nil, err
	}
	if cols.ProtoTimes, err = readDurColumn(cr, cols.ProtoTimes, rows); err != nil {
		return nil, err
	}
	if cols.TxTimes, err = readDurColumn(cr, cols.TxTimes, rows); err != nil {
		return nil, err
	}
	if cols.BufferWaits, err = readDurColumn(cr, cols.BufferWaits, rows); err != nil {
		return nil, err
	}
	if cols.SyscallTimes, err = readDurColumn(cr, cols.SyscallTimes, rows); err != nil {
		return nil, err
	}
	if cols.UserTimes, err = readDurColumn(cr, cols.UserTimes, rows); err != nil {
		return nil, err
	}
	if cols.BlockedTimes, err = readDurColumn(cr, cols.BlockedTimes, rows); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Int32()
		if err != nil {
			return nil, err
		}
		cols.ServerPIDs = append(cols.ServerPIDs, v)
	}
	for i := 0; i < rows; i++ {
		v, err := cr.String()
		if err != nil {
			return nil, err
		}
		cols.ServerProcs = append(cols.ServerProcs, v)
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint64()
		if err != nil {
			return nil, err
		}
		cols.CtxSwitches = append(cols.CtxSwitches, v)
	}
	for i := 0; i < rows; i++ {
		v, err := cr.Uint64()
		if err != nil {
			return nil, err
		}
		cols.DiskOps = append(cols.DiskOps, v)
	}
	return cols, nil
}

func readDurColumn(cr *pbio.ColumnReader, dst []time.Duration, rows int) ([]time.Duration, error) {
	for i := 0; i < rows; i++ {
		v, err := cr.Duration()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func readIntColumn(cr *pbio.ColumnReader, dst []int, rows int) ([]int, error) {
	for i := 0; i < rows; i++ {
		v, err := cr.Int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Package recwire binds the interaction record to its PBIO wire format.
// Everything that moves interactions off-process — the dissemination
// daemon's broker, its subscribers, and the GPA's federated history
// pages — registers through here, so a columnar batch has one encoding
// on every link and no consumer has to import the daemon to decode it.
package recwire

import (
	"fmt"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// Format names the interaction record's wire format.
const Format = "sysprof.interaction"

// Register adds the interaction format to reg and binds its column
// decoder. The format is derived from core.Record itself — pbio flattens
// the nested flow key into four u16 fields — so encoders write columnar
// batches straight into the wire buffer and decoders rebuild them
// straight into *core.RecordColumns.
func Register(reg *pbio.Registry) error {
	if _, err := reg.Register(Format, core.Record{}); err != nil {
		return fmt.Errorf("recwire: %w", err)
	}
	reg.BindColumnDecoder(Format, decodeInteractionColumns)
	return nil
}

// decodeInteractionColumns rebuilds a *core.RecordColumns from a columnar
// interaction frame. Columns arrive in wire-field order (core.Record
// flattened), so the four flow u16 columns fill successive pieces of the
// packed FlowKey column. Capacity is reserved up to
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

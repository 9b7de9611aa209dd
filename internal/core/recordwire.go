package core

import (
	"encoding/binary"
	"fmt"

	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// recordFormat names the interaction record's wire format.
const recordFormat = "sysprof.interaction"

// colKind is what a wire field is stored as in RecordColumns: a slot of
// one of the four typed views, or one of the singleton columns. The two
// encoders and the decoder switch on it.
type colKind uint8

const (
	colU64  colKind = iota // u64s()[idx]
	colDur                 // durs()[idx]
	colInt                 // ints()[idx]
	colStr                 // strs()[idx]
	colNode                // Nodes
	colFlow                // Flows; idx picks the piece, see flowPiece
	colCPU                 // CPUs
	colPID                 // ServerPIDs
)

// recordWire is the interaction record on the wire: one entry per field
// of Record flattened the way pbio flattens it (the nested flow key
// becomes four u16 fields), in wire order, naming the column that holds
// it. TestRecordWireMatchesRecord holds it to Record, to the registered
// format and to RecordColumns.
var recordWire = [...]struct {
	name string
	kind colKind
	idx  int
}{
	{"ID", colU64, 0},
	{"Node", colNode, 0},
	{"Flow.Src.Node", colFlow, 0},
	{"Flow.Src.Port", colFlow, 1},
	{"Flow.Dst.Node", colFlow, 2},
	{"Flow.Dst.Port", colFlow, 3},
	{"Class", colStr, 0},
	{"CPU", colCPU, 0},
	{"Start", colDur, 0},
	{"End", colDur, 1},
	{"ReqPackets", colInt, 0},
	{"ReqBytes", colInt, 1},
	{"RespPackets", colInt, 2},
	{"RespBytes", colInt, 3},
	{"ProtoTime", colDur, 2},
	{"TxTime", colDur, 3},
	{"BufferWait", colDur, 4},
	{"SyscallTime", colDur, 5},
	{"UserTime", colDur, 6},
	{"BlockedTime", colDur, 7},
	{"ServerPID", colPID, 0},
	{"ServerProc", colStr, 1},
	{"CtxSwitches", colU64, 1},
	{"DiskOps", colU64, 2},
}

// RecordWireFields is the number of wire fields a record flattens into.
const RecordWireFields = len(recordWire)

// RegisterRecordFormat adds the interaction format to reg and binds its
// column decoder. Everything that moves interactions off-process — the
// dissemination daemon's broker, its subscribers, and the GPA's federated
// history pages — registers through here, so a columnar batch has one
// encoding on every link. The format is derived from Record itself, so
// encoders write columnar batches straight into the wire buffer and
// decoders rebuild them straight into *RecordColumns.
func RegisterRecordFormat(reg *pbio.Registry) error {
	if _, err := reg.Register(recordFormat, Record{}); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	reg.BindColumnDecoder(recordFormat, func(cr *pbio.ColumnReader, rows int) (any, error) {
		cols, err := ReadColumns(cr, rows)
		if err != nil {
			return nil, err
		}
		return cols, nil
	})
	return nil
}

// NumWireFields implements the pbio column-batch contract.
func (c *RecordColumns) NumWireFields() int { return RecordWireFields }

// Rows implements the pbio column-batch contract.
func (c *RecordColumns) Rows() int { return c.Len() }

// flowPiece returns piece k of a flow key in wire order: Src.Node,
// Src.Port, Dst.Node, Dst.Port.
func flowPiece(f *simnet.FlowKey, k int) uint16 {
	switch k {
	case 0:
		return uint16(f.Src.Node)
	case 1:
		return f.Src.Port
	case 2:
		return uint16(f.Dst.Node)
	default:
		return f.Dst.Port
	}
}

// setFlowPiece is flowPiece's inverse.
func setFlowPiece(f *simnet.FlowKey, k int, v uint16) {
	switch k {
	case 0:
		f.Src.Node = simnet.NodeID(v)
	case 1:
		f.Src.Port = v
	case 2:
		f.Dst.Node = simnet.NodeID(v)
	default:
		f.Dst.Port = v
	}
}

// --- plain (0x04) encoding ---
//
// The exact bytes the flat record format puts on the wire (little-endian,
// strings length-prefixed with u32), so pbio builds columnar frames from
// a RecordColumns without reflection.

func appendWireString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendWireStrings(buf []byte, col []string) []byte {
	for _, s := range col {
		buf = appendWireString(buf, s)
	}
	return buf
}

// appendLE64 appends a 64-bit column; a platform int widens to i64.
func appendLE64[T ~uint64 | ~int64 | ~int](buf []byte, col []T) []byte {
	for _, v := range col {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// AppendColumn appends wire field `field`'s value for every row — one
// contiguous column sweep.
func (c *RecordColumns) AppendColumn(buf []byte, field int) []byte {
	w := recordWire[field]
	switch w.kind {
	case colU64:
		buf = appendLE64(buf, *c.u64s()[w.idx])
	case colDur:
		buf = appendLE64(buf, *c.durs()[w.idx])
	case colInt:
		buf = appendLE64(buf, *c.ints()[w.idx])
	case colStr:
		buf = appendWireStrings(buf, *c.strs()[w.idx])
	case colNode:
		for _, v := range c.Nodes {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
		}
	case colFlow:
		for i := range c.Flows {
			buf = binary.LittleEndian.AppendUint16(buf, flowPiece(&c.Flows[i], w.idx))
		}
	case colCPU:
		buf = append(buf, c.CPUs...)
	case colPID:
		for _, v := range c.ServerPIDs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// --- compressed (0x05) encoding ---

// zDictMax caps a string column's dictionary. Columns with more distinct
// values fall back to raw encoding, which keeps the dictionary build a
// bounded linear scan over a stack array — no map, no allocation.
const zDictMax = 32

// appendZigzag appends one zigzag-folded varint delta.
func appendZigzag(buf []byte, d int64) []byte {
	return binary.AppendUvarint(buf, uint64(d<<1)^uint64(d>>63))
}

// appendDelta delta-codes a 64-bit column: one zigzag varint per row,
// each the difference (mod 2^64) from the row before, the first from zero.
func appendDelta[T ~uint64 | ~int64 | ~int](buf []byte, col []T) []byte {
	var prev uint64
	for _, v := range col {
		buf = appendZigzag(buf, int64(uint64(v)-prev))
		prev = uint64(v)
	}
	return buf
}

// appendRun appends one (run length, value) pair.
func appendRun(buf []byte, n int, v uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	return binary.AppendUvarint(buf, v)
}

// appendRLE run-length encodes a narrow integer column. Values are
// masked to 32 bits — the widest RLE column — so a negative i32 costs a
// 5-byte varint instead of a sign-extended 10-byte one; the decoder
// truncates to the column's width, so the round trip is exact.
func appendRLE[T ~uint8 | ~uint16 | ~int32](buf []byte, col []T) []byte {
	for i, n := 0, len(col); i < n; {
		v := col[i]
		j := i + 1
		for j < n && col[j] == v {
			j++
		}
		buf = appendRun(buf, j-i, uint64(v)&0xffffffff)
		i = j
	}
	return buf
}

// appendDictStrings dictionary-encodes a string column: distinct values
// up front, then run-length encoded indices. Columns with more than
// zDictMax distinct values are emitted raw instead — past that point the
// column is not low-cardinality and the linear dictionary scan stops
// paying for itself.
func appendDictStrings(buf []byte, col []string) []byte {
	var dict [zDictMax]string
	nd := 0
	for _, s := range col {
		k := 0
		for ; k < nd; k++ {
			if dict[k] == s {
				break
			}
		}
		if k == nd {
			if nd == zDictMax {
				return appendWireStrings(append(buf, pbio.ColEncRaw), col)
			}
			dict[nd] = s
			nd++
		}
	}
	buf = append(buf, pbio.ColEncDict)
	buf = binary.AppendUvarint(buf, uint64(nd))
	buf = appendWireStrings(buf, dict[:nd])
	for i, n := 0, len(col); i < n; {
		s := col[i]
		j := i + 1
		for j < n && col[j] == s {
			j++
		}
		idx := 0
		for dict[idx] != s {
			idx++
		}
		buf = appendRun(buf, j-i, uint64(idx))
		i = j
	}
	return buf
}

// AppendCompressedColumn implements pbio's compressed column-batch
// contract for 0x05 frames: each column opens with an encoding tag and
// carries that encoding's payload. The choice is static per column kind —
// delta varints for identifiers, counters, timestamps, durations and
// sizes (neighbouring rows are close in time and magnitude), run-length
// for the low-cardinality node/CPU/PID columns a shard link naturally
// clusters, and dictionaries for the class and process-name strings.
//
//sysprof:nonblocking
func (c *RecordColumns) AppendCompressedColumn(buf []byte, field int) []byte {
	w := recordWire[field]
	switch w.kind {
	case colU64:
		buf = appendDelta(append(buf, pbio.ColEncDelta), *c.u64s()[w.idx])
	case colDur:
		buf = appendDelta(append(buf, pbio.ColEncDelta), *c.durs()[w.idx])
	case colInt:
		buf = appendDelta(append(buf, pbio.ColEncDelta), *c.ints()[w.idx])
	case colStr:
		buf = appendDictStrings(buf, *c.strs()[w.idx])
	case colNode:
		buf = appendRLE(append(buf, pbio.ColEncRLE), c.Nodes)
	case colCPU:
		buf = appendRLE(append(buf, pbio.ColEncRLE), c.CPUs)
	case colPID:
		buf = appendRLE(append(buf, pbio.ColEncRLE), c.ServerPIDs)
	case colFlow:
		flows, k := c.Flows, w.idx
		if k == 0 || k == 2 {
			// Endpoint nodes: shard links carry long same-node runs.
			buf = append(buf, pbio.ColEncRLE)
			for i, n := 0, len(flows); i < n; {
				v := flowPiece(&flows[i], k)
				j := i + 1
				for j < n && flowPiece(&flows[j], k) == v {
					j++
				}
				buf = appendRun(buf, j-i, uint64(v))
				i = j
			}
			break
		}
		// Ports: ephemeral ports climb and service ports repeat, so
		// deltas stay small or collapse to zero.
		buf = append(buf, pbio.ColEncDelta)
		var prev int64
		for i := range flows {
			v := int64(flowPiece(&flows[i], k))
			buf = appendZigzag(buf, v-prev)
			prev = v
		}
	}
	return buf
}

// --- decoding ---

// ReadColumns rebuilds a batch from a columnar interaction frame of
// either kind: columns arrive in recordWire order, and the reader
// undoes a 0x05 frame's per-column codes itself. Capacity is reserved up
// to pbio.MaxColumnReserve rows; a hostile row count beyond that only
// grows the batch as bytes actually arrive.
func ReadColumns(cr *pbio.ColumnReader, rows int) (*RecordColumns, error) {
	c := NewRecordColumns(min(rows, pbio.MaxColumnReserve))
	for _, w := range recordWire {
		switch w.kind {
		case colU64:
			col := *c.u64s()[w.idx]
			for i := 0; i < rows; i++ {
				v, err := cr.Uint64()
				if err != nil {
					return nil, err
				}
				col = append(col, v)
			}
			*c.u64s()[w.idx] = col
		case colDur:
			col := *c.durs()[w.idx]
			for i := 0; i < rows; i++ {
				v, err := cr.Duration()
				if err != nil {
					return nil, err
				}
				col = append(col, v)
			}
			*c.durs()[w.idx] = col
		case colInt:
			col := *c.ints()[w.idx]
			for i := 0; i < rows; i++ {
				v, err := cr.Int()
				if err != nil {
					return nil, err
				}
				col = append(col, v)
			}
			*c.ints()[w.idx] = col
		case colStr:
			col := *c.strs()[w.idx]
			for i := 0; i < rows; i++ {
				v, err := cr.String()
				if err != nil {
					return nil, err
				}
				col = append(col, v)
			}
			*c.strs()[w.idx] = col
		case colNode:
			for i := 0; i < rows; i++ {
				v, err := cr.Uint16()
				if err != nil {
					return nil, err
				}
				c.Nodes = append(c.Nodes, simnet.NodeID(v))
			}
		case colFlow:
			// The four pieces fill successive parts of the packed key;
			// whichever arrives first makes the rows.
			for i := 0; i < rows; i++ {
				v, err := cr.Uint16()
				if err != nil {
					return nil, err
				}
				if i == len(c.Flows) {
					c.Flows = append(c.Flows, simnet.FlowKey{})
				}
				setFlowPiece(&c.Flows[i], w.idx, v)
			}
		case colCPU:
			for i := 0; i < rows; i++ {
				v, err := cr.Byte()
				if err != nil {
					return nil, err
				}
				c.CPUs = append(c.CPUs, v)
			}
		case colPID:
			for i := 0; i < rows; i++ {
				v, err := cr.Int32()
				if err != nil {
					return nil, err
				}
				c.ServerPIDs = append(c.ServerPIDs, v)
			}
		}
	}
	return c, nil
}

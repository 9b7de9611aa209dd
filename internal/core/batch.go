package core

import (
	"fmt"
	"reflect"
	"sync"

	"sysprof/internal/pbio"
)

// ShardSelector restricts a consumer to one shard of a federated tier: it
// receives only rows whose shard key satisfies key % Count == Index. The
// zero value (Count == 0) means unsharded — the consumer sees everything.
type ShardSelector struct {
	Index uint32
	Count uint32
}

// Valid reports whether the selector describes a real shard.
func (s ShardSelector) Valid() bool { return s.Count > 0 && s.Index < s.Count }

// Match reports whether a shard key belongs to this selector. An
// unsharded selector matches everything.
//
//sysprof:nonblocking
func (s ShardSelector) Match(key uint64) bool {
	return s.Count == 0 || key%uint64(s.Count) == uint64(s.Index)
}

// String renders "i/N" ("" for unsharded).
func (s ShardSelector) String() string {
	if s.Count == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Gather appends to dst the rows of src that belong to this selector's
// shard — the partition sweep: one ShardHash per row over the packed flow
// column (the same hash every flow router uses), only matching rows
// copied. The broker and the scenario harness both route with it.
func (s ShardSelector) Gather(dst, src *RecordColumns) {
	var row Record
	for i := range src.Flows {
		if s.Match(src.Flows[i].ShardHash()) {
			src.CopyRow(&row, i)
			dst.Append(&row)
		}
	}
}

// Batch is what a node publishes: rows that encode by column, and that
// know their own routing key — so a broker fans any batch out the same
// way, never asking what the rows are. *RecordColumns keys on the flow
// column; dissem's aggregate deltas key on their node.
type Batch interface {
	// Len returns the number of rows.
	Len() int
	// Columns returns the encode plan of the batch's row type in reg and
	// the batch as that plan's columns; the plan is nil when reg does not
	// have the row type.
	Columns(reg *pbio.Registry) (*pbio.Plan, pbio.CompressedColumnAppender)
	// Shard returns the rows sel's shard owns, and Keep the rows keep
	// passes (asked once per row, of a value valid only for that call) —
	// each as a scratch batch, possibly empty, that the caller hands back
	// with Release once nothing reads it any more.
	Shard(sel ShardSelector) Batch
	Keep(keep func(row any) bool) Batch
	Release()
}

var recordType = reflect.TypeOf(Record{})

// colsPool recycles the scratch batches Shard and Keep build, and rowPool
// the row Keep hands its predicate, so the steady-state publish path
// allocates nothing.
var (
	colsPool = sync.Pool{New: func() any { return &RecordColumns{} }}
	rowPool  = sync.Pool{New: func() any { return new(Record) }}
)

// Columns implements Batch.
func (c *RecordColumns) Columns(reg *pbio.Registry) (*pbio.Plan, pbio.CompressedColumnAppender) {
	return reg.PlanFor(recordType), c
}

// Shard implements Batch with Gather.
func (c *RecordColumns) Shard(sel ShardSelector) Batch {
	part := colsPool.Get().(*RecordColumns)
	part.Reset()
	sel.Gather(part, c)
	return part
}

// Keep implements Batch; keep sees each row as a *Record that is reused
// between rows.
func (c *RecordColumns) Keep(keep func(row any) bool) Batch {
	kept := colsPool.Get().(*RecordColumns)
	kept.Reset()
	row := rowPool.Get().(*Record)
	for i := range c.IDs {
		c.CopyRow(row, i)
		if keep(row) {
			kept.Append(row)
		}
	}
	rowPool.Put(row)
	return kept
}

// Release implements Batch: c must have come from Shard or Keep.
func (c *RecordColumns) Release() { colsPool.Put(c) }

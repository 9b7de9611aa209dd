package dissem

import (
	"fmt"

	"sysprof/internal/core"
	"sysprof/internal/ecode"
	"sysprof/internal/pubsub"
)

// The paper's dissemination daemon applies "dynamic data filters" before
// shipping monitoring data. CompileFilter turns an E-Code predicate into a
// pubsub subscription filter over interaction records, so consumers
// receive only the records they asked for — installable and replaceable
// at runtime, like CPAs.
//
// The program sees the record as "rec" and must return a bool. Example:
//
//	return rec.class == "port:80" && rec.buffer_wait_ns > 1000000;

// coreRecord adapts a core.Record to the ecode.Record interface. Filters
// evaluate against the row the broker materializes from the columnar
// batch, with no flattening copy. Durations are exposed in nanoseconds
// with a _ns suffix so E-Code's integer arithmetic applies directly.
type coreRecord struct {
	r *core.Record
}

// FilterRecord exposes r to E-Code exactly as CompileFilter binds it to
// "rec", so a differential test can run a filter source through the
// reference interpreter against the same view.
func FilterRecord(r *core.Record) ecode.Record { return coreRecord{r: r} }

// Field implements ecode.Record; TestFilterFieldSchemaComplete holds it
// in lockstep with filterSchema.
func (c coreRecord) Field(name string) (ecode.Value, bool) {
	r := c.r
	switch name {
	case "id":
		return int64(r.ID), true
	case "node":
		return int64(r.Node), true
	case "class":
		return r.Class, true
	case "src_node":
		return int64(r.Flow.Src.Node), true
	case "src_port":
		return int64(r.Flow.Src.Port), true
	case "dst_node":
		return int64(r.Flow.Dst.Node), true
	case "dst_port":
		return int64(r.Flow.Dst.Port), true
	case "start_ns":
		return int64(r.Start), true
	case "end_ns":
		return int64(r.End), true
	case "residence_ns":
		return int64(r.End - r.Start), true
	case "req_packets":
		return int64(r.ReqPackets), true
	case "req_bytes":
		return int64(r.ReqBytes), true
	case "resp_packets":
		return int64(r.RespPackets), true
	case "resp_bytes":
		return int64(r.RespBytes), true
	case "proto_ns":
		return int64(r.ProtoTime), true
	case "tx_ns":
		return int64(r.TxTime), true
	case "buffer_wait_ns":
		return int64(r.BufferWait), true
	case "syscall_ns":
		return int64(r.SyscallTime), true
	case "user_ns":
		return int64(r.UserTime), true
	case "blocked_ns":
		return int64(r.BlockedTime), true
	case "server_pid":
		return int64(r.ServerPID), true
	case "server_proc":
		return r.ServerProc, true
	case "ctx_switches":
		return int64(r.CtxSwitches), true
	case "disk_ops":
		return int64(r.DiskOps), true
	}
	return nil, false
}

// filterSchema is the filter-visible interaction-record schema: the
// typed fields of the "rec" record.
func filterSchema() ecode.RecordSchema {
	return ecode.RecordSchema{
		"id": ecode.TInt, "node": ecode.TInt, "class": ecode.TString,
		"src_node": ecode.TInt, "src_port": ecode.TInt,
		"dst_node": ecode.TInt, "dst_port": ecode.TInt,
		"start_ns": ecode.TInt, "end_ns": ecode.TInt, "residence_ns": ecode.TInt,
		"req_packets": ecode.TInt, "req_bytes": ecode.TInt,
		"resp_packets": ecode.TInt, "resp_bytes": ecode.TInt,
		"proto_ns": ecode.TInt, "tx_ns": ecode.TInt, "buffer_wait_ns": ecode.TInt,
		"syscall_ns": ecode.TInt, "user_ns": ecode.TInt, "blocked_ns": ecode.TInt,
		"server_pid": ecode.TInt, "server_proc": ecode.TString,
		"ctx_switches": ecode.TInt, "disk_ops": ecode.TInt,
	}
}

// CompileFilter verifies an E-Code predicate over interaction records
// and compiles it into a pubsub.Filter. Like a CPA, a filter runs on the
// publish path, so it passes the same gate: the verifier rejects unknown
// fields, unbounded loops, blocking builtins and over-budget programs
// here, at install time, and the proven-safe program runs as compiled
// closures with no step counter. At run time, values that are not the
// *core.Record a columnar publish hands to filters, non-bool results and
// program errors fail closed (the record is not delivered), so a broken
// filter cannot flood a subscriber.
func CompileFilter(src string) (pubsub.Filter, error) {
	prog, err := ecode.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("dissem: filter: %w", err)
	}
	compiled, verdict, err := prog.CompileVerified(ecode.VerifyEnv{
		Name:    "filter",
		Records: map[string]ecode.RecordSchema{"rec": filterSchema()},
	})
	if err != nil {
		if verdict != nil && !verdict.OK {
			return nil, fmt.Errorf("dissem: filter rejected by verifier:\n%s", verdict.Render())
		}
		return nil, fmt.Errorf("dissem: filter: %w", err)
	}
	inst, err := compiled.NewInstance(nil)
	if err != nil {
		return nil, fmt.Errorf("dissem: filter: %w", err)
	}
	return func(rec any) bool {
		r, ok := rec.(*core.Record)
		if !ok {
			return false
		}
		out, err := inst.Run(map[string]ecode.Value{"rec": coreRecord{r: r}})
		if err != nil {
			return false
		}
		b, ok := out.(bool)
		return ok && b
	}, nil
}

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

// filterFields is what a filter may read of the interaction record bound
// as "rec" — the row the broker materializes from the columnar batch,
// read in place with no flattening copy: the schema the verifier checks
// sources against and, row for row, the getters the compiled predicate
// calls. Durations are exposed in nanoseconds with a _ns suffix so
// E-Code's integer arithmetic applies directly.
var filterFields = ecode.Bind("rec",
	ecode.Int("id", func(r *core.Record) int64 { return int64(r.ID) }),
	ecode.Int("node", func(r *core.Record) int64 { return int64(r.Node) }),
	ecode.Str("class", func(r *core.Record) string { return r.Class }),
	ecode.Int("src_node", func(r *core.Record) int64 { return int64(r.Flow.Src.Node) }),
	ecode.Int("src_port", func(r *core.Record) int64 { return int64(r.Flow.Src.Port) }),
	ecode.Int("dst_node", func(r *core.Record) int64 { return int64(r.Flow.Dst.Node) }),
	ecode.Int("dst_port", func(r *core.Record) int64 { return int64(r.Flow.Dst.Port) }),
	ecode.Int("start_ns", func(r *core.Record) int64 { return int64(r.Start) }),
	ecode.Int("end_ns", func(r *core.Record) int64 { return int64(r.End) }),
	ecode.Int("residence_ns", func(r *core.Record) int64 { return int64(r.End - r.Start) }),
	ecode.Int("req_packets", func(r *core.Record) int64 { return int64(r.ReqPackets) }),
	ecode.Int("req_bytes", func(r *core.Record) int64 { return int64(r.ReqBytes) }),
	ecode.Int("resp_packets", func(r *core.Record) int64 { return int64(r.RespPackets) }),
	ecode.Int("resp_bytes", func(r *core.Record) int64 { return int64(r.RespBytes) }),
	ecode.Int("proto_ns", func(r *core.Record) int64 { return int64(r.ProtoTime) }),
	ecode.Int("tx_ns", func(r *core.Record) int64 { return int64(r.TxTime) }),
	ecode.Int("buffer_wait_ns", func(r *core.Record) int64 { return int64(r.BufferWait) }),
	ecode.Int("syscall_ns", func(r *core.Record) int64 { return int64(r.SyscallTime) }),
	ecode.Int("user_ns", func(r *core.Record) int64 { return int64(r.UserTime) }),
	ecode.Int("blocked_ns", func(r *core.Record) int64 { return int64(r.BlockedTime) }),
	ecode.Int("server_pid", func(r *core.Record) int64 { return int64(r.ServerPID) }),
	ecode.Str("server_proc", func(r *core.Record) string { return r.ServerProc }),
	ecode.Int("ctx_switches", func(r *core.Record) int64 { return int64(r.CtxSwitches) }),
	ecode.Int("disk_ops", func(r *core.Record) int64 { return int64(r.DiskOps) }),
)

// FilterVerifyEnv is the environment filters are verified against and
// compiled into, as core.CPAVerifyEnv is for analyzers.
func FilterVerifyEnv() ecode.VerifyEnv {
	return ecode.VerifyEnv{Name: "filter", Binding: filterFields}
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
	compiled, verdict, err := prog.CompileVerified(FilterVerifyEnv())
	if err != nil {
		if verdict != nil && !verdict.OK {
			return nil, fmt.Errorf("dissem: filter rejected by verifier:\n%s", verdict.Render())
		}
		return nil, fmt.Errorf("dissem: filter: %w", err)
	}
	inst := compiled.NewInstance()
	return func(rec any) bool {
		out, err := inst.Run(rec) // an error for anything but a *core.Record
		b, ok := out.(bool)
		return err == nil && ok && b
	}, nil
}

package ecode_test

import (
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/ecode"
	"sysprof/internal/simnet"
)

// TestFilterCompiledMatchesInterpreter pins dissem.CompileFilter — the
// verified, compiled engine the publish path runs — against the
// tree-walking interpreter on the dissemination filter fixtures: for
// every source and every record, the compiled filter delivers exactly
// when the interpreter's result is the bool true. The interpreter is
// the reference semantics; this test is its only remaining client
// outside the package.
func TestFilterCompiledMatchesInterpreter(t *testing.T) {
	base := core.Record{
		ID: 1, Node: 2,
		Flow: simnet.FlowKey{
			Src: simnet.Addr{Node: 1, Port: 1000},
			Dst: simnet.Addr{Node: 2, Port: 80},
		},
		Class: "port:80", Start: time.Millisecond, End: 3 * time.Millisecond,
		ReqPackets: 1, ReqBytes: 500, RespPackets: 2, RespBytes: 2900,
		ProtoTime: 10 * time.Microsecond, TxTime: 20 * time.Microsecond,
		BufferWait: 100 * time.Microsecond, SyscallTime: 5 * time.Microsecond,
		UserTime: 200 * time.Microsecond, BlockedTime: 50 * time.Microsecond,
		ServerPID: 7, ServerProc: "httpd", CtxSwitches: 3, DiskOps: 1,
	}
	cold := base
	cold.BufferWait, cold.UserTime = time.Microsecond, 10*time.Microsecond
	other := base
	other.Class, other.Flow.Dst.Port = "port:443", 443
	records := []core.Record{base, cold, other, {}}

	for _, src := range []string{
		`return rec.class == "port:80" && rec.buffer_wait_ns > 50000;`,
		`return rec.user_ns > 100000;`,
		`return 42;`,
		`return true;`,
		`return rec.residence_ns == rec.end_ns - rec.start_ns && rec.dst_port != 443;`,
		`int heavy = 0; if (rec.req_bytes + rec.resp_bytes > 3000) { heavy = 1; } return heavy == 1 || contains(rec.server_proc, "sql");`,
		`return 1 / rec.disk_ops > 0;`, // errors on the zero record: both engines must fail closed
		// Every builtin, with every argument kind the verifier admits.
		`return len(rec.class) + len(rec.server_proc + "/" + rec.class) > 12;`,
		`return contains(rec.class, "80") && !contains(rec.server_proc, rec.class);`,
		`return contains(rec.class + rec.server_proc, "0h") || contains("", rec.server_proc);`,
		`return abs(rec.req_bytes - rec.resp_bytes) > 2000;`,
		`return abs(rec.user_ns * -0.5) >= abs(-99999.5);`,
		`return min(rec.user_ns, rec.blocked_ns, 60000) < 55000;`,
		`return max(rec.req_bytes, rec.resp_bytes / 2) == 1450;`,
		`return min(rec.user_ns / 1000.0, 150.5) > max(rec.blocked_ns * 0.001, 0.25, -1.0);`,
		`return max(abs(rec.dst_port - 443), len(rec.class), min(rec.disk_ops, 7)) > 300;`,
	} {
		filter, err := dissem.CompileFilter(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		interp := ecode.MustCompile(src).NewInstance(ecode.WithEnv(dissem.FilterVerifyEnv()))
		for i := range records {
			out, err := interp.Run(&records[i])
			want, _ := out.(bool)
			want = want && err == nil
			if got := filter(&records[i]); got != want {
				t.Errorf("%s\n record %d: compiled filter = %v, interpreter = %v (err %v)", src, i, got, out, err)
			}
		}
	}
}

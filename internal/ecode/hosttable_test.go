package ecode_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/ecode"
	"sysprof/internal/kprof"
	"sysprof/internal/simnet"
)

// checkFieldTable is the test of a host record's field table, driven by
// the table itself. For every row, `return <binding>.<field>;` verifies
// and yields the row's getter's value on the compiled engine and on the
// interpreter oracle; host is fully populated with every int distinct,
// so a zero or a repeated value is a getter reading the wrong struct
// field (or a name declared twice). A name the table does not declare is
// rejected by the verifier, with the whole table listed as evidence.
func checkFieldTable(t *testing.T, env ecode.VerifyEnv, host any, wantFields int) {
	t.Helper()
	rec := env.Binding
	names := rec.FieldNames()
	if len(names) != wantFields {
		t.Errorf("%s declares %d fields, want %d: %v", rec.Name(), len(names), wantFields, names)
	}
	seen := map[ecode.Value]string{}
	for _, name := range names {
		want, ok := rec.Value(host, name)
		if !ok {
			t.Errorf("%s.%s: row has no getter", rec.Name(), name)
			continue
		}
		if want == int64(0) || want == 0.0 || want == "" || want == false {
			t.Errorf("%s.%s reads %#v off a fully populated host", rec.Name(), name, want)
		}
		if prev, dup := seen[want]; dup && want != true {
			t.Errorf("%s.%s and %s.%s both read %#v", rec.Name(), name, rec.Name(), prev, want)
		}
		seen[want] = name
		got, err := diffRun(t, fmt.Sprintf("return %s.%s;", rec.Name(), name), env, host)
		if err != nil || got != want {
			t.Errorf("return %s.%s = %#v, %v; the getter says %#v", rec.Name(), name, got, err, want)
		}
	}

	v := ecode.MustCompile(fmt.Sprintf("return %s.bogus;", rec.Name())).Verify(env)
	want := fmt.Sprintf("%s:1:1: typecheck: record %q has no field \"bogus\"\n\t%s:1:1: schema fields: %s",
		env.Name, rec.Name(), env.Name, strings.Join(names, ", "))
	if v.OK || v.Render() != want {
		t.Errorf("undeclared field: verdict\n%s\nwant\n%s", v.Render(), want)
	}
}

// TestEventFieldTable: the kernel event as CPAs see it ("ev").
func TestEventFieldTable(t *testing.T) {
	checkFieldTable(t, core.CPAVerifyEnv("cpa", nil), &kprof.Event{
		Type: kprof.EvNetRx, CPU: 1, Node: 2, PID: 3, PID2: 4, GID: 5, Time: 6 * time.Millisecond,
		Flow:  simnet.FlowKey{Src: simnet.Addr{Node: 7, Port: 1000}, Dst: simnet.Addr{Node: 12, Port: 80}},
		MsgID: 8, Seq: 9, Last: true, Bytes: 1500, Aux: 10, Tag: 11, Proc: "httpd",
	}, 16)
}

// TestFilterFieldTable: the interaction record as dissemination filters
// see it ("rec").
func TestFilterFieldTable(t *testing.T) {
	checkFieldTable(t, dissem.FilterVerifyEnv(), &core.Record{
		ID: 1, Node: 2,
		Flow:  simnet.FlowKey{Src: simnet.Addr{Node: 3, Port: 1000}, Dst: simnet.Addr{Node: 4, Port: 80}},
		Class: "port:80", Start: 5 * time.Millisecond, End: 11 * time.Millisecond,
		ReqPackets: 12, ReqBytes: 500, RespPackets: 13, RespBytes: 2900,
		ProtoTime: 14 * time.Microsecond, TxTime: 15 * time.Microsecond,
		BufferWait: 16 * time.Microsecond, SyscallTime: 17 * time.Microsecond,
		UserTime: 18 * time.Microsecond, BlockedTime: 19 * time.Microsecond,
		ServerPID: 20, ServerProc: "httpd", CtxSwitches: 21, DiskOps: 22,
	}, 24)
}

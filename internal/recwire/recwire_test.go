package recwire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// TestRegisterRoundTrip: a registry that went through Register encodes a
// columnar batch as either frame kind and decodes it back, through the
// bound column decoder, into an equal *core.RecordColumns. (The frames'
// exact bytes, the broker paths and the hostile-input fuzzing are pinned
// from internal/dissem, which registers through here.)
func TestRegisterRoundTrip(t *testing.T) {
	reg := pbio.NewRegistry()
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := Register(reg); err == nil {
		t.Fatal("registering the interaction format twice succeeded")
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	if plan == nil || plan.Format().Name != Format || len(plan.Format().Fields) != core.RecordWireFields {
		t.Fatalf("plan = %+v, want the %s format with %d fields", plan, Format, core.RecordWireFields)
	}

	cols := core.NewRecordColumns(5)
	for i := 0; i < 5; i++ {
		cols.Append(&core.Record{
			ID: uint64(100 - i), Node: simnet.NodeID(1 + i%2), CPU: uint8(i),
			Flow: simnet.FlowKey{
				Src: simnet.Addr{Node: 7, Port: uint16(4000 + i)},
				Dst: simnet.Addr{Node: simnet.NodeID(2 + i%2), Port: 80},
			},
			Class: []string{"port:80", "port:443"}[i%2],
			Start: time.Duration(i) * time.Millisecond, End: time.Duration(3*i) * time.Millisecond,
			ReqPackets: i, ReqBytes: -i, RespBytes: 1 << 40, BlockedTime: -time.Second,
			ServerPID: int32(-i), ServerProc: "httpd", CtxSwitches: ^uint64(0), DiskOps: uint64(i),
		})
	}
	stream := plan.Format().AppendDef(nil)
	stream, _, err := plan.AppendColumnsFrame(stream, cols)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err = plan.AppendCompressedColumnsFrame(stream, cols)
	if err != nil {
		t.Fatal(err)
	}
	dec := pbio.NewDecoder(bytes.NewReader(stream), reg)
	for _, kind := range []string{"0x04", "0x05"} {
		rec, err := dec.Decode()
		if err != nil {
			t.Fatalf("%s frame: %v", kind, err)
		}
		got, ok := rec.Value.(*core.RecordColumns)
		if !ok || rec.Format != Format {
			t.Fatalf("%s frame decoded to %T of format %q", kind, rec.Value, rec.Format)
		}
		if got.Len() != cols.Len() {
			t.Fatalf("%s frame: %d rows, want %d", kind, got.Len(), cols.Len())
		}
		for i := 0; i < cols.Len(); i++ {
			if got.Row(i) != cols.Row(i) {
				t.Fatalf("%s frame row %d:\n got %+v\nwant %+v", kind, i, got.Row(i), cols.Row(i))
			}
		}
	}
}

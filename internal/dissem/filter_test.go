package dissem

import (
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
)

func TestCompileFilterSelects(t *testing.T) {
	f, err := CompileFilter(`return rec.class == "port:80" && rec.buffer_wait_ns > 50000;`)
	if err != nil {
		t.Fatal(err)
	}
	hot := sampleRecord(1) // class port:80, BufferWait 100µs
	cold := sampleRecord(2)
	cold.BufferWait = time.Microsecond
	other := sampleRecord(3)
	other.Class = "port:443"

	if !f(&hot) {
		t.Fatal("matching record rejected")
	}
	if f(&cold) {
		t.Fatal("low-wait record accepted")
	}
	if f(&other) {
		t.Fatal("other-class record accepted")
	}
}

func TestCompileFilterFailsClosed(t *testing.T) {
	// At run time: a non-bool result and a value that is not the
	// *core.Record a columnar publish delivers both suppress delivery.
	f, err := CompileFilter(`return 42;`)
	if err != nil {
		t.Fatal(err)
	}
	r := sampleRecord(1)
	if f(&r) {
		t.Fatal("non-bool filter result delivered")
	}
	pass, err := CompileFilter(`return true;`)
	if err != nil {
		t.Fatal(err)
	}
	if !pass(&r) {
		t.Fatal("pass-all filter rejected a record")
	}
	if pass("not a record") || pass(r) {
		t.Fatal("non-*core.Record value delivered")
	}
}

// TestCompileFilterVerifierGate pins that filters pass the same gate as
// CPAs at install time: what the verifier rejects never becomes a
// pubsub.Filter, so nothing unbounded or ill-typed reaches the publish
// path.
func TestCompileFilterVerifierGate(t *testing.T) {
	for name, tc := range map[string]struct{ src, want string }{
		"syntax":         {"syntax error", ""},
		"unbounded-loop": {`while (true) { } return true;`, "termination"},
		"unknown-field":  {`return rec.nonexistent > 0;`, "typecheck"},
		"mistyped-field": {`return rec.class > 5;`, "typecheck"},
		"blocking-call":  {`sleep(1); return true;`, "noblock"},
	} {
		f, err := CompileFilter(tc.src)
		if err == nil || f != nil {
			t.Fatalf("%s: filter compiled, want a rejection", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: rejection does not name the %s pass:\n%v", name, tc.want, err)
		}
	}
}

// TestCompiledFilterAllocs: a filter reads int and string fields through
// typed getters, hands builtins their arguments unboxed and answers with
// a bool, so a record costs the publish path no allocation.
func TestCompiledFilterAllocs(t *testing.T) {
	for _, src := range []string{
		`return rec.class == "port:80" && rec.server_proc != "" && rec.buffer_wait_ns > 50000;`,
		`return contains(rec.server_proc, "ttp") && contains(rec.class, "80");`,
		`return max(rec.user_ns, rec.blocked_ns) > 1000 * len(rec.class) && abs(rec.req_bytes - rec.resp_bytes) > 300;`,
	} {
		f, err := CompileFilter(src)
		if err != nil {
			t.Fatal(err)
		}
		r := sampleRecord(1)
		if !f(&r) {
			t.Fatalf("%s: matching record rejected", src)
		}
		if avg := testing.AllocsPerRun(1000, func() { f(&r) }); avg != 0 {
			t.Errorf("%s: compiled filter allocates %.2f/record, want 0", src, avg)
		}
	}
}

func TestFilteredSubscriptionEndToEnd(t *testing.T) {
	// A compiled filter applies per row inside a published columnar
	// batch; the subscriber receives the surviving rows as a sub-batch.
	reg := pbio.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()

	filter, err := CompileFilter(`return rec.user_ns > 100000;`) // > 100µs
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	broker.Subscribe(ChannelInteractions, func(rec any) {
		got = append(got, rec.(*core.RecordColumns).IDs...)
	}, pubsub.WithFilter(filter))

	slow1 := sampleRecord(1) // UserTime 200µs
	fast := sampleRecord(2)
	fast.UserTime = 10 * time.Microsecond
	slow2 := sampleRecord(3)
	batch := core.NewRecordColumns(3)
	for _, r := range []core.Record{slow1, fast, slow2} {
		batch.Append(&r)
	}
	if err := broker.PublishColumns(ChannelInteractions, batch); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("delivered = %v, want [1 3]", got)
	}
}

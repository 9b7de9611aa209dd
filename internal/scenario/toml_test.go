package scenario

import (
	"strings"
	"testing"
	"time"
)

const sampleTOML = `
# A small chaos scenario.
name = "sample"
seed = 99
duration = "3s"
grace = "500ms"

[fleet]
nodes = 20
startup = "wave"
startup_span = "1s"
waves = 2
peers_per_client = 3

[monitor]
shards = 4
queue_depth = 16
drain_per_frame = "300us"
block_timeout = "2ms"
evict_after = 10
correlation_window = "250ms"
query_interval = "500ms"
query_timeout = "50ms"

[guard]
min_correlation_rate = 0.4
max_timeout_fraction = 0.2

[[template]]
name = "web"
weight = 3
role = "client"
rate = 5.5
req_size = 256
resp_size = 2048
slots = 8
timeout = "150ms"

[[template]]
name = "app"
weight = 1
role = "server"
workers = 6
service_time = "3ms"
bandwidth = 10000000.0  # 10 Mbps
queue_limit = 32

[[chaos]]
at = "1s"
kind = "loss"
count = 5
rate = 0.25
duration = "750ms"

[[chaos]]
at = "2s"
kind = "shard-death"
shard = 2
`

func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec(sampleTOML)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "sample" || spec.Seed != 99 || spec.Duration != 3*time.Second ||
		spec.Grace != 500*time.Millisecond {
		t.Fatalf("top-level fields wrong: %+v", spec)
	}
	f := spec.Fleet
	if f.Nodes != 20 || f.Startup != "wave" || f.StartupSpan != time.Second ||
		f.Waves != 2 || f.PeersPerClient != 3 {
		t.Fatalf("fleet wrong: %+v", f)
	}
	m := spec.Monitor
	if m.Shards != 4 || m.QueueDepth != 16 || m.DrainPerFrame != 300*time.Microsecond ||
		m.BlockTimeout != 2*time.Millisecond ||
		m.EvictAfter != 10 || m.CorrelationWindow != 250*time.Millisecond ||
		m.QueryInterval != 500*time.Millisecond || m.QueryTimeout != 50*time.Millisecond {
		t.Fatalf("monitor wrong: %+v", m)
	}
	if spec.Guard.MinCorrelationRate != 0.4 || spec.Guard.MaxTimeoutFraction != 0.2 {
		t.Fatalf("guard wrong: %+v", spec.Guard)
	}
	if len(spec.Templates) != 2 {
		t.Fatalf("want 2 templates, got %d", len(spec.Templates))
	}
	web := spec.Templates[0]
	if web.Name != "web" || web.Weight != 3 || web.Role != "client" || web.Rate != 5.5 ||
		web.ReqSize != 256 || web.RespSize != 2048 || web.Slots != 8 ||
		web.Timeout != 150*time.Millisecond {
		t.Fatalf("web template wrong: %+v", web)
	}
	app := spec.Templates[1]
	if app.Name != "app" || app.Role != "server" || app.Workers != 6 ||
		app.ServiceTime != 3*time.Millisecond || app.Bandwidth != 10e6 || app.QueueLimit != 32 {
		t.Fatalf("app template wrong: %+v", app)
	}
	// Unset template knobs take Normalize defaults.
	if web.Workers != 4 || app.Slots != 4 || app.FlushInterval != 100*time.Millisecond {
		t.Fatalf("defaults not applied: web=%+v app=%+v", web, app)
	}
	if len(spec.Chaos) != 2 {
		t.Fatalf("want 2 chaos events, got %d", len(spec.Chaos))
	}
	loss := spec.Chaos[0]
	if loss.Kind != ChaosLoss || loss.At != time.Second || loss.Count != 5 ||
		loss.Rate != 0.25 || loss.Duration != 750*time.Millisecond || loss.Shard != -1 {
		t.Fatalf("loss event wrong: %+v", loss)
	}
	if spec.Chaos[1].Kind != ChaosShardDie || spec.Chaos[1].Shard != 2 {
		t.Fatalf("shard-death event wrong: %+v", spec.Chaos[1])
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown key", "name = \"x\"\nbogus = 1\n", "unknown key scenario.bogus"},
		// The broker decides what a full queue does; the retired policy
		// key is refused like any other.
		{"retired overflow key", "name = \"x\"\n[monitor]\noverflow = \"adaptive\"\n", "unknown key monitor.overflow"},
		{"unknown table", "name = \"x\"\n[nope]\na = 1\n", "unknown table [nope]"},
		{"unknown array", "name = \"x\"\n[[nope]]\na = 1\n", "unknown table array [[nope]]"},
		{"bad duration", "name = \"x\"\nduration = \"fast\"\n", "duration string"},
		{"bare value", "name = \"x\"\nduration = 3s\n", "unsupported value"},
		{"duplicate key", "name = \"x\"\nname = \"y\"\n", "duplicate key"},
		{"dotted key", "a.b = 1\n", "unsupported key"},
		{"missing role", "name = \"x\"\n[fleet]\nnodes = 4\n[[template]]\nname = \"t\"\n", "role must be client or server"},
		{"unknown chaos kind", "name = \"x\"\n[fleet]\nnodes = 4\n" +
			"[[template]]\nrole = \"client\"\n[[template]]\nrole = \"server\"\n" +
			"[[chaos]]\nkind = \"meteor\"\n", "unknown kind"},
		{"type mismatch", "name = \"x\"\n[fleet]\nnodes = \"many\"\n", "want integer"},
	}
	for _, tc := range cases {
		if _, err := ParseSpec(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestParseSpecComments(t *testing.T) {
	src := "name = \"c\" # trailing\nseed = 5 # another\n[fleet]\nnodes = 4\n" +
		"[[template]]\nrole = \"client\"\n[[template]]\nrole = \"server\"\n"
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "c" || spec.Seed != 5 {
		t.Fatalf("comment handling wrong: %+v", spec)
	}
}

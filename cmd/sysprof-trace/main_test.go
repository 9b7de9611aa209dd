package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
	"sysprof/internal/trace"
)

// writeTestTrace records a small monitored run to a file.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	network := simnet.NewNetwork(eng)
	server, err := simos.NewNode(eng, network, "s", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := simos.NewNode(eng, network, "c", simos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := network.Connect(server.ID(), client.ID()); err != nil {
		t.Fatal(err)
	}
	tw.Attach(server.Hub(), core.MaskDefault())
	ssock := server.MustBind(80)
	csock := client.MustBind(9000)
	server.Spawn("srv", func(p *simos.Process) {
		var loop func()
		loop = func() {
			p.Recv(ssock, func(m *simos.Message) {
				p.Compute(time.Millisecond, func() { p.Reply(ssock, m, 1000, nil, loop) })
			})
		}
		loop()
	})
	client.Spawn("cli", func(p *simos.Process) {
		var loop func(i int)
		loop = func(i int) {
			if i == 0 {
				return
			}
			p.Send(csock, ssock.Addr(), 200, nil, func() {
				p.Recv(csock, func(m *simos.Message) { loop(i - 1) })
			})
		}
		loop(3)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() == 0 {
		t.Fatal("no events recorded")
	}
	return path
}

func TestAllModes(t *testing.T) {
	path := writeTestTrace(t)
	for _, mode := range []string{"dump", "stats", "replay"} {
		if err := run(mode, path); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	if err := run("bogus", path); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run("stats", "/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sysprof/internal/gpa"
	"sysprof/internal/kprof"
	"sysprof/internal/lineproto"
	"sysprof/internal/trace"
)

// lockedBuffer is a log sink the test reads while the daemon writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// start runs sysprofd with opts, its listeners on loopback ports the
// kernel picks, until the returned stop is called; it returns the procfs
// URL and the controller address the node logged.
func start(t *testing.T, opts options) (procfsURL, ctlAddr string, stop func()) {
	t.Helper()
	var logged lockedBuffer
	out := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(out) })

	opts.httpAddr, opts.pubsubAddr, opts.ctlAddr = "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"
	opts.pace, opts.topology = 5*time.Millisecond, "simple"
	sig := make(chan os.Signal, 1)
	ran := make(chan error, 1)
	go func() { ran <- run(opts, sig) }()
	stop = func() {
		t.Helper()
		sig <- os.Interrupt
		select {
		case err := <-ran:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("sysprofd did not shut down on the signal")
		}
	}

	up := regexp.MustCompile(`sysprofd up: procfs (http://\S+) pubsub \S+ ctl (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if m := up.FindStringSubmatch(logged.String()); m != nil {
			return m[1], m[2], stop
		}
		select {
		case err := <-ran:
			t.Fatalf("sysprofd exited before it was up: %v\n%s", err, logged.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("sysprofd never came up:\n%s", logged.String())
		}
	}
}

// TestLoopbackSmoke brings a node up on loopback and drives each surface
// once: the management protocol (help, status, one knob round trip, a
// CPA install), procfs reads (the index, and the CPA's emits counted
// per channel), and a clean shutdown on a signal that leaves the event
// trace whole.
func TestLoopbackSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "events.trace")
	procfsURL, ctlAddr, stop := start(t, options{tracePath: tracePath})

	conn, err := net.Dial("tcp", ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctl := lineproto.NewClient(conn)
	defer ctl.Close()
	ask := func(cmd, want string) {
		t.Helper()
		reply, err := ctl.Do(cmd, 5*time.Second)
		if err != nil || !strings.Contains(reply, want) {
			t.Fatalf("%q: reply %q, err %v; want a reply containing %q", cmd, reply, err, want)
		}
	}
	ask("help", "flushinterval <node> <duration>")
	ask("status", "node webserver:")
	ask("status", " flush=250ms pubsub=256\n")
	ask("flushinterval webserver 50ms", "ok")
	ask("status", " flush=50ms ")
	probe := base64.StdEncoding.EncodeToString([]byte(`emit("smoke.bytes", ev.bytes + 1000); emit("smoke.ev", ev); return 0;`))
	ask("cpa install webserver smoke net "+probe, "ok")
	// Run until the hub has delivered events, to the trace among others.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		reply, err := ctl.Do("status", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(reply, " delivered=0 ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no events delivered:\n%s", reply)
		}
	}

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v, body %q", url, resp.StatusCode, err, body)
		}
		return string(body)
	}
	if body := get(procfsURL); !strings.Contains(body, "/sysprof/webserver/emits") {
		t.Fatalf("procfs index lists no emits row:\n%s", body)
	}
	emits := regexp.MustCompile(`(?m)^smoke\.bytes +count=[1-9]\d* +last=\d{4,}\n^smoke\.ev +count=[1-9]\d* +last=record$`)
	if body := get(procfsURL + "webserver/emits"); !emits.MatchString(body) {
		t.Fatalf("emits row = %q, want both channels counted with their last values", body)
	}

	stop()
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := trace.Replay(f, func(*kprof.Event) error { return nil }); n == 0 || err != nil {
		t.Fatalf("trace replays %d events, err %v; want the whole run's", n, err)
	}
}

// TestNTPClockBoundReachesShards: with -ntp-interval and -federation, each
// measured clock-error bound lands on the shards as the monitored node's.
func TestNTPClockBoundReachesShards(t *testing.T) {
	g := gpa.New(gpa.Config{}, func() time.Duration { return 0 })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go g.Serve(l)

	_, _, stop := start(t, options{federation: []string{l.Addr().String()}, ntpInterval: 20 * time.Millisecond})
	defer stop()
	const webserver = 1 // the simple topology's first node
	for deadline := time.Now().Add(10 * time.Second); g.ClockErrorBound(webserver) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no clock-error bound reached the shard")
		}
	}
}

// TestHungShardDoesNotStallControl: a -federation endpoint that accepts
// and never answers holds up neither the management protocol — every
// measured bound is posted from under the lock management commands take
// — nor the bounds' way to a live shard.
func TestHungShardDoesNotStallControl(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			defer c.Close() // read nothing, answer nothing, until the test ends
		}
	}()
	g := gpa.New(gpa.Config{}, func() time.Duration { return 0 })
	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	go g.Serve(live)

	_, ctlAddr, stop := start(t, options{
		federation:  []string{hung.Addr().String(), live.Addr().String()},
		ntpInterval: 20 * time.Millisecond,
	})
	defer stop()
	conn, err := net.Dial("tcp", ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	ctl := lineproto.NewClient(conn)
	defer ctl.Close()
	for i := 0; i < 4; i++ {
		if i > 0 {
			time.Sleep(time.Second)
		}
		began := time.Now()
		reply, err := ctl.Do("status", 5*time.Second)
		if took := time.Since(began); err != nil || took > 250*time.Millisecond {
			t.Fatalf("status %d took %v (reply %q, err %v); want under 250ms", i, took, reply, err)
		}
	}
	const webserver = 1 // the simple topology's first node
	if g.ClockErrorBound(webserver) == 0 {
		t.Fatal("no clock-error bound reached the live shard")
	}
}

// TestFederationNeedsNTPInterval: -federation carries nothing but the
// monitor's bounds, so without -ntp-interval sysprofd refuses it with
// exit code 2 and names where the federation is administered.
func TestFederationNeedsNTPInterval(t *testing.T) {
	if os.Getenv("SYSPROFD_TEST_MAIN") == "1" {
		os.Args = []string{"sysprofd", "-federation", "127.0.0.1:1",
			"-http", "127.0.0.1:0", "-pubsub", "127.0.0.1:0", "-ctl", "127.0.0.1:0"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFederationNeedsNTPInterval$")
	cmd.Env = append(os.Environ(), "SYSPROFD_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "gpad -frontend -query") {
		t.Fatalf("sysprofd -federation without -ntp-interval: %v, output:\n%s\nwant exit code 2 naming gpad -frontend -query", err, out)
	}
}

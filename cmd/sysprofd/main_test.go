package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sysprof/internal/lineproto"
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

// TestLoopbackSmoke brings a node up on loopback ports the kernel picks
// and drives each surface once: the management protocol (help, status,
// one knob round trip), a procfs read, and a clean shutdown on a signal.
func TestLoopbackSmoke(t *testing.T) {
	var logged lockedBuffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)

	sig := make(chan os.Signal, 1)
	ran := make(chan error, 1)
	go func() {
		ran <- run(options{
			httpAddr: "127.0.0.1:0", pubsubAddr: "127.0.0.1:0", ctlAddr: "127.0.0.1:0",
			pace: 5 * time.Millisecond, topology: "simple",
		}, sig)
	}()

	up := regexp.MustCompile(`sysprofd up: procfs (http://\S+) pubsub \S+ ctl (\S+)`)
	var procfsURL, ctlAddr string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if m := up.FindStringSubmatch(logged.String()); m != nil {
			procfsURL, ctlAddr = m[1], m[2]
			break
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
	ask("status", " flush=250ms pubsub=256/drop wirecompress=on")
	ask("flushinterval webserver 50ms", "ok")
	ask("status", " flush=50ms ")

	resp, err := http.Get(procfsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "/sysprof/webserver/") {
		t.Fatalf("GET %s: status %d, err %v, body %q", procfsURL, resp.StatusCode, err, body)
	}

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

package pubsub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"sysprof/internal/core"
)

// stalledSub dials the broker and never reads, so the connection's send
// queue fills as soon as the TCP window does.
func stalledSub(t *testing.T, addr string, channels ...string) *Subscriber {
	t.Helper()
	sub, err := Dial(addr, nil, channels...)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// wedgedSub subscribes over a net.Pipe and never reads. A pipe's Write
// completes only when the peer reads, so — unlike stalledSub's TCP socket,
// whose kernel buffer takes the first frames — the connection's writer
// never delivers anything, whatever the scheduler does.
func wedgedSub(t *testing.T, b *Broker, channels ...string) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	attachSub(t, b, server, client, channels)
	return client
}

// gatedConn is the broker's end of a subscriber connection whose writes
// complete at once, and are discarded, unless the test holds the gate:
// then they wait until it is released or the connection closes. The test,
// not the scheduler, decides when the writer delivers.
type gatedConn struct {
	net.Conn
	mu           sync.Mutex
	cond         sync.Cond
	held, closed bool
}

func (c *gatedConn) hold(on bool) {
	c.mu.Lock()
	c.held = on
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.held && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return 0, net.ErrClosed
	}
	return len(p), nil
}

func (c *gatedConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return c.Conn.Close()
}

// gatedSub subscribes over a gatedConn; closing the returned client end
// unsubscribes.
func gatedSub(t *testing.T, b *Broker, channels ...string) (*gatedConn, net.Conn) {
	t.Helper()
	client, server := net.Pipe()
	g := &gatedConn{Conn: server}
	g.cond.L = &g.mu
	attachSub(t, b, g, client, channels)
	return g, client
}

// attachSub serves server as one of b's connections and handshakes for
// channels from client.
func attachSub(t *testing.T, b *Broker, server, client net.Conn, channels []string) {
	t.Helper()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.handleConn(server)
	}()
	if err := writeHandshakeOpts(client, channels, core.ShardSelector{}, false); err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, b, 1)
}

// waitFor polls cond until it holds, failing the test after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func startBroker(t *testing.T, b *Broker) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	return l.Addr().String()
}

func waitRegistered(t *testing.T, b *Broker, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(b.Subscribers()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d subscribers registered", len(b.Subscribers()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverflowDropsCountedBrokerLive floods a subscriber that has never
// delivered, and so is shed rather than waited for, with a tiny queue:
// drops must be counted, the broker must keep accepting publishes without
// blocking, and the subscriber's queue stays bounded.
func TestOverflowDropsCountedBrokerLive(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg, WithQueueDepth(4), WithEvictAfterOverflows(0))
	defer b.Close()
	defer wedgedSub(t, b, "m").Close()

	const publishes = 5000
	start := time.Now()
	for i := 0; i < publishes; i++ {
		if err := publishOne(b, "m", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	st := b.Stats()
	if st.RemoteDropped == 0 {
		t.Fatalf("no drops counted after %d publishes into a depth-4 queue: %+v", publishes, st)
	}
	if st.RemoteEnqueued != publishes {
		t.Fatalf("RemoteEnqueued = %d, want %d (drop-oldest admits every frame)", st.RemoteEnqueued, publishes)
	}
	subs := b.Subscribers()
	if len(subs) != 1 {
		t.Fatalf("subscribers = %d, want 1 (eviction disabled)", len(subs))
	}
	if subs[0].QueueLen > subs[0].QueueCap {
		t.Fatalf("queue len %d exceeds cap %d", subs[0].QueueLen, subs[0].QueueCap)
	}
	if got := subs[0].Refused + subs[0].EvictedOldest; got != st.RemoteDropped {
		t.Fatalf("per-subscriber drops %d != broker drops %d", got, st.RemoteDropped)
	}
	// Liveness: 5000 non-blocking enqueues should be far under a second
	// even on a loaded CI machine; a synchronous path stuck behind the
	// stalled socket would hang essentially forever.
	if elapsed > 5*time.Second {
		t.Fatalf("publishing took %v — enqueue path appears to block on the stalled subscriber", elapsed)
	}
}

// TestSlowSubscriberEvicted keeps overflowing one subscriber until the
// streak threshold trips and the broker disconnects it.
func TestSlowSubscriberEvicted(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg, WithQueueDepth(2), WithEvictAfterOverflows(8))
	defer b.Close()
	addr := startBroker(t, b)

	sub := stalledSub(t, addr, "m")
	defer sub.Close()
	waitRegistered(t, b, 1)

	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().SlowEvicted == 0 {
		if err := publishOne(b, "m", 0); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber never evicted: %+v", b.Stats())
		}
	}
	if n := len(b.Subscribers()); n != 0 {
		t.Fatalf("evicted subscriber still registered (%d live)", n)
	}
	// The broker stays usable after the eviction.
	if err := publishOne(b, "m", 0); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionDiscardsAreCounted evicts a wedged subscriber mid-stream
// with multi-record batches and checks that nothing was discarded without
// a number: once the writer has exited, every record admitted to the
// connection's queue was delivered, shed for a newer frame, or discarded
// with the connection, and every shed or discarded record is in
// RemoteDropped. Before the queue counted what dropConn and a failed write
// release, the frames still queued at the eviction were in no counter.
func TestEvictionDiscardsAreCounted(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg, WithQueueDepth(2), WithEvictAfterOverflows(8))
	defer wedgedSub(t, b, "m").Close()
	var rc *remoteConn
	b.mu.Lock()
	for c := range b.conns {
		rc = c
	}
	b.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().SlowEvicted == 0 {
		if err := b.PublishColumns("m", batchOf(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber never evicted: %+v", b.Stats())
		}
	}
	b.Close() // waits for the connection's writer goroutine to exit

	st := b.Stats()
	m, _ := rc.q.snapshot()
	c := m.Counts
	if c.Discarded < 6 || st.RemoteDeliver != 0 {
		t.Fatalf("eviction of a wedged subscriber should discard a full queue (two 3-record frames) and deliver nothing: %+v, delivered %d", c, st.RemoteDeliver)
	}
	if st.RemoteEnqueued != c.Admitted || m.Len() != 0 {
		t.Fatalf("RemoteEnqueued %d != the queue's admitted %d, or %d frames still queued", st.RemoteEnqueued, c.Admitted, m.Len())
	}
	if want := st.RemoteDeliver + c.EvictedOldest + c.Discarded; st.RemoteEnqueued != want {
		t.Fatalf("RemoteEnqueued %d != delivered %d + evicted-oldest %d + discarded %d: %d records in no counter",
			st.RemoteEnqueued, st.RemoteDeliver, c.EvictedOldest, c.Discarded, int64(st.RemoteEnqueued)-int64(want))
	}
	if want := c.Refused + c.EvictedOldest + c.Discarded; st.RemoteDropped != want {
		t.Fatalf("RemoteDropped %d != refused %d + evicted-oldest %d + discarded %d", st.RemoteDropped, c.Refused, c.EvictedOldest, c.Discarded)
	}
}

// TestBlockWithDeadlinePolicy reaches the blocking arm the way a live
// subscriber does: its writer drains under the deadline, then stalls. A
// publish into the full queue waits (and accounts the wait) but refuses
// the new frame once the deadline passes, without wedging the publisher.
func TestBlockWithDeadlinePolicy(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg,
		WithQueueDepth(1),
		WithBlockTimeout(5*time.Millisecond),
		WithEvictAfterOverflows(0))
	defer b.Close()
	g, client := gatedSub(t, b, "m")
	defer client.Close()

	for i := uint64(1); i <= 2; i++ { // one at a time: a depth-1 queue sheds before the first delivery
		if err := publishOne(b, "m", 0); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a delivery", func() bool { return b.Stats().RemoteDeliver == i })
	}
	g.hold(true) // the stall: the writer takes the next frame and its write waits
	if err := publishOne(b, "m", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer to take the frame", func() bool { return b.Subscribers()[0].QueueLen == 0 })
	for i := 0; i < 2; i++ {
		if err := publishOne(b, "m", 0); err != nil {
			t.Fatal(err)
		}
	}
	subs := b.Subscribers()
	if len(subs) != 1 || subs[0].BlockedNanos == 0 {
		t.Fatalf("expected accounted blocking time, got %+v", subs)
	}
	if s := subs[0]; s.Refused != 1 || s.EvictedOldest != 0 || b.Stats().RemoteDropped != 1 {
		t.Fatalf("want the deadline to refuse the one frame that met a full queue, shedding nothing: refused %d, shed %d, dropped %d",
			s.Refused, s.EvictedOldest, b.Stats().RemoteDropped)
	}
}

// TestConcurrentPublishSubscribeCloseRace hammers the broker from many
// goroutines — publishers, batch publishers, local subscriber churn, a
// stalled remote — while the broker shuts down mid-flight. Run under
// -race this is the tentpole's lifecycle safety net.
func TestConcurrentPublishSubscribeCloseRace(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg, WithQueueDepth(4), WithEvictAfterOverflows(16))
	addr := startBroker(t, b)

	sub := stalledSub(t, addr, "m")
	defer sub.Close()
	waitRegistered(t, b, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = publishOne(b, "m", uint64(id*1000+j))
				_ = b.PublishColumns("m", metricBatch{{Value: 1}, {Value: 2}})
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := b.Subscribe("m", func(any) {})
				s.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	b.Close() // concurrent with everything above
	close(stop)
	wg.Wait()

	// After Close, publishing errors and the broker is quiescent.
	if err := publishOne(b, "m", 0); err != ErrClosed {
		t.Fatalf("post-close publish error = %v, want ErrClosed", err)
	}
}

// TestHandshakeRejected sends, over real TCP, each handshake the broker
// must refuse: the pre-magic form (a count byte followed by
// length-prefixed channel names), every version but the current one, and
// a capability bit the broker does not know. Each peer must be
// disconnected without ever being registered — a subscriber gets the
// stream it negotiated or none.
func TestHandshakeRejected(t *testing.T) {
	hdr := func(version byte, flags uint16) []byte {
		h := []byte{handshakeMagic, version}
		h = binary.LittleEndian.AppendUint16(h, flags)
		h = binary.LittleEndian.AppendUint16(h, 1) // one channel
		return appendString(h, "m")
	}
	cases := map[string][]byte{
		"v0-count-byte":  appendString([]byte{1}, "m"),
		"version-0":      hdr(0, 0),
		"version-older":  hdr(handshakeVersion-1, 0),
		"version-newer":  hdr(handshakeVersion+1, 0),
		"unknown-flag":   hdr(handshakeVersion, 1<<2),
		"unknown-flags":  hdr(handshakeVersion, handshakeFlagColumnsZ|1<<15),
		"retired-v2-hdr": hdr(2, 1<<0|1<<2), // the last negotiated form: plans+columns bits
	}
	for name, wire := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := readHandshake(bytes.NewReader(wire)); err == nil {
				t.Fatal("readHandshake accepted it")
			}
			b := NewBroker(newReg(t))
			defer b.Close()
			conn, err := net.Dial("tcp", startBroker(t, b))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			// The broker closes its end: the read returns EOF (or a
			// reset) instead of blocking until the deadline.
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			var one [1]byte
			if _, err := conn.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after a rejected handshake (read err = %v)", err)
			}
			if n := len(b.Subscribers()); n != 0 {
				t.Fatalf("%d subscribers registered from a rejected handshake", n)
			}
		})
	}
}

// TestRuntimeKnobs exercises the controller-facing knob surface.
func TestRuntimeKnobs(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	if d := b.QueueConfig(); d != 256 {
		t.Fatalf("default depth = %d", d)
	}
	if err := b.SetQueueDepth(0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if err := b.SetQueueDepth(16); err != nil {
		t.Fatal(err)
	}
	if d := b.QueueConfig(); d != 16 {
		t.Fatalf("depth after set = %d", d)
	}
}

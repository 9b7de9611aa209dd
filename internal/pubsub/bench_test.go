package pubsub

import (
	"net"
	"testing"
	"time"

	"sysprof/internal/core"
)

// drainingSub dials and reads frames as fast as they arrive.
func drainingSub(b *testing.B, addr string) *Subscriber {
	b.Helper()
	sub, err := Dial(addr, nil, "m")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := sub.conn.Read(buf); err != nil {
				return
			}
		}
	}()
	return sub
}

// BenchmarkPublishRemote measures the publish-side cost of remote
// fan-out, one one-record frame per publish. The acceptance claim of the async rewrite is that enqueue
// latency is independent of the slowest subscriber's drain rate:
// all-fast and one-stalled must report comparable ns/op, because the
// publisher only ever touches the bounded queue, never the socket.
func BenchmarkPublishRemote(b *testing.B) {
	run := func(b *testing.B, stalled bool) {
		reg := newReg(b)
		br := NewBroker(reg, WithQueueDepth(64), WithEvictAfterOverflows(0))
		defer br.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = br.Serve(l) }()
		addr := l.Addr().String()

		fast := drainingSub(b, addr)
		defer fast.Close()
		want := 1
		if stalled {
			// Dial but never read: the TCP window plus the send queue
			// fill, and every further publish overflows this subscriber.
			slow, err := Dial(addr, nil, "m")
			if err != nil {
				b.Fatal(err)
			}
			defer slow.Close()
			want = 2
		}
		deadline := time.Now().Add(2 * time.Second)
		for len(br.Subscribers()) < want {
			if time.Now().After(deadline) {
				b.Fatal("subscribers never registered")
			}
			time.Sleep(time.Millisecond)
		}

		one := batchOf(42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := br.PublishColumns("m", one); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
	b.Run("all-fast", func(b *testing.B) { run(b, false) })
	b.Run("one-stalled", func(b *testing.B) { run(b, true) })
}

// BenchmarkPublishColumnsRemote is the daemon flush path: one batch frame
// encoded once and fanned out.
func BenchmarkPublishColumnsRemote(b *testing.B) {
	reg := newReg(b)
	br := NewBroker(reg, WithQueueDepth(64), WithEvictAfterOverflows(0))
	defer br.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = br.Serve(l) }()
	sub := drainingSub(b, l.Addr().String())
	defer sub.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(br.Subscribers()) < 1 {
		if time.Now().After(deadline) {
			b.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	batch := &core.RecordColumns{}
	for id := uint64(0); id < 64; id++ {
		batch.AppendColumns(batchOf(id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.PublishColumns("m", batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

package pubsub

import (
	"errors"
	"net"
	"testing"
	"time"

	"sysprof/internal/pbio"
)

type metric struct {
	Name  string
	Value int64
	Dur   time.Duration
}

func newReg(t *testing.T) *pbio.Registry {
	t.Helper()
	reg := pbio.NewRegistry()
	if _, err := reg.Register("metric", metric{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// publishOne publishes a one-record batch: the tests below drive the
// fan-out machinery one record at a time.
func publishOne(b *Broker, channel string, m metric) error {
	return b.PublishBatch(channel, []metric{m})
}

func TestLocalPublishSubscribe(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	var got []metric
	b.Subscribe("lpa.interactions", func(rec any) {
		got = append(got, rec.([]metric)...)
	})
	if err := publishOne(b, "lpa.interactions", metric{Name: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := publishOne(b, "other.channel", metric{Name: "ignored"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "x" {
		t.Fatalf("got = %v", got)
	}
	st := b.Stats()
	if st.Published != 2 || st.LocalDeliver != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalFilter(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	var got []int64
	b.Subscribe("m", func(rec any) { got = append(got, rec.([]metric)[0].Value) },
		WithFilter(func(rec any) bool { return rec.(metric).Value%2 == 0 }))
	for i := int64(1); i <= 4; i++ {
		_ = publishOne(b, "m", metric{Value: i})
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("filtered values = %v", got)
	}
}

func TestLocalUnsubscribe(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	n := 0
	sub := b.Subscribe("m", func(any) { n++ })
	_ = publishOne(b, "m", metric{})
	sub.Close()
	sub.Close() // idempotent
	_ = publishOne(b, "m", metric{})
	if n != 1 {
		t.Fatalf("deliveries = %d, want 1", n)
	}
}

func TestRemoteSubscriberOverTCP(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = b.Serve(l)
	}()

	sub, err := Dial(l.Addr().String(), reg, "gpa.feed")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Give the handshake a moment to register server-side.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := publishOne(b, "gpa.feed", metric{Name: "rt", Value: 7, Dur: time.Second}); err != nil {
			t.Fatal(err)
		}
		if b.Stats().RemoteDeliver > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("remote subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	ch, rec, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ch != "gpa.feed" {
		t.Fatalf("channel = %q", ch)
	}
	m, ok := rec.Value.(*metric)
	if !ok {
		t.Fatalf("record value type %T", rec.Value)
	}
	if m.Name != "rt" || m.Value != 7 || m.Dur != time.Second {
		t.Fatalf("record = %+v", m)
	}

	b.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// After broker close, Recv should eventually error.
	for {
		if _, _, err := sub.Recv(); err != nil {
			break
		}
	}
}

func TestRemoteOnlySubscribedChannels(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg)
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()

	sub, err := Dial(l.Addr().String(), reg, "wanted")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().RemoteDeliver == 0 {
		_ = publishOne(b, "unwanted", metric{Name: "no"})
		_ = publishOne(b, "wanted", metric{Name: "yes"})
		if time.Now().After(deadline) {
			t.Fatal("no remote delivery")
		}
		time.Sleep(time.Millisecond)
	}
	ch, rec, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ch != "wanted" || rec.Value.(*metric).Name != "yes" {
		t.Fatalf("got %q %+v", ch, rec.Value)
	}
}

func TestPublishBatchLocal(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()

	var whole [][]metric
	b.Subscribe("m", func(rec any) {
		batch, ok := rec.([]metric)
		if !ok {
			t.Errorf("unfiltered subscriber got %T, want []metric", rec)
			return
		}
		// The slice is only valid during the callback; copy it.
		whole = append(whole, append([]metric(nil), batch...))
	})

	var even []int64
	b.Subscribe("m", func(rec any) {
		for _, m := range rec.([]metric) {
			even = append(even, m.Value)
		}
	}, WithFilter(func(rec any) bool { return rec.(metric).Value%2 == 0 }))

	none := 0
	b.Subscribe("m", func(any) { none++ },
		WithFilter(func(any) bool { return false }))

	batch := []metric{{Value: 1}, {Value: 2}, {Value: 3}, {Value: 4}}
	if err := b.PublishBatch("m", batch); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishBatch("m", []metric{}); err != nil {
		t.Fatal(err) // empty batch is a no-op
	}

	if len(whole) != 1 || len(whole[0]) != 4 {
		t.Fatalf("unfiltered deliveries = %v", whole)
	}
	if len(even) != 2 || even[0] != 2 || even[1] != 4 {
		t.Fatalf("filtered values = %v", even)
	}
	if none != 0 {
		t.Fatalf("all-rejected subscriber was called %d times", none)
	}
	st := b.Stats()
	if st.BatchesPublished != 1 {
		t.Fatalf("BatchesPublished = %d, want 1", st.BatchesPublished)
	}
	if st.LocalDeliver != 6 { // 4 unfiltered + 2 filtered
		t.Fatalf("LocalDeliver = %d, want 6", st.LocalDeliver)
	}
}

func TestPublishBatchRejectsNonSlice(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	if err := b.PublishBatch("m", metric{}); err == nil {
		t.Fatal("PublishBatch with non-slice should error")
	}
}

func TestPublishBatchRemote(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg)
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()

	sub, err := Dial(l.Addr().String(), reg, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	batch := []metric{{Name: "a", Value: 1}, {Name: "b", Value: 2}, {Name: "c", Value: 3}}
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().RemoteDeliver == 0 {
		if err := b.PublishBatch("m", batch); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("remote subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// The subscriber drains the batch one record at a time, all tagged
	// with the same channel.
	var got []metric
	for len(got) < 3 {
		ch, rec, err := sub.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ch != "m" {
			t.Fatalf("channel = %q, want m", ch)
		}
		got = append(got, *rec.Value.(*metric))
	}
	for i, m := range got[:3] {
		if m != batch[i] {
			t.Fatalf("record %d = %+v, want %+v", i, m, batch[i])
		}
	}
}

func TestPublishAfterCloseErrors(t *testing.T) {
	b := NewBroker(newReg(t))
	b.Close()
	if err := publishOne(b, "m", metric{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestDeadRemoteDroppedOnPublish(t *testing.T) {
	reg := newReg(t)
	b := NewBroker(reg)
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()

	sub, err := Dial(l.Addr().String(), reg, "m")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for registration, then kill the client abruptly.
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().RemoteDeliver == 0 {
		_ = publishOne(b, "m", metric{})
		if time.Now().After(deadline) {
			t.Fatal("no remote delivery")
		}
		time.Sleep(time.Millisecond)
	}
	sub.Close()
	// Publishing into the dead connection must eventually fail and drop it
	// without wedging the broker.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_ = publishOne(b, "m", metric{})
		if b.Stats().RemoteFailures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Skip("peer close not surfaced as write error on this platform")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := publishOne(b, "m", metric{}); err != nil {
		// Second publish after the drop should be clean (no remotes left).
		if b.Stats().RemoteFailures < 1 {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, "m"); err == nil {
		t.Fatal("dial to closed port should error")
	}
}

package pubsub

import (
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// The suite publishes what ships: columnar interaction batches, told
// apart by record ID. idsOf is what a subscriber, local or remote, reads
// back out of one.
func batchOf(ids ...uint64) *core.RecordColumns {
	cols := &core.RecordColumns{}
	for _, id := range ids {
		cols.Append(&core.Record{ID: id, Class: "c", Flow: flowOf(id)})
	}
	return cols
}

// flowOf gives each record its own flow, so batches spread over shards.
func flowOf(id uint64) simnet.FlowKey {
	return simnet.FlowKey{Src: simnet.Addr{Node: 1, Port: uint16(1000 + id)}, Dst: simnet.Addr{Node: 2, Port: 80}}
}

func idsOf(rec any) []uint64 { return rec.(*core.RecordColumns).IDs }

// evenID is the suite's dynamic data filter.
func evenID(rec any) bool { return rec.(*core.Record).ID%2 == 0 }

// metric rows are the other kind of batch a broker carries, shaped like
// dissem's aggregate deltas: pbio.StructColumns frames them, no column
// decoder is bound, and a subscriber gets each batch back as one []metric.
type metric struct {
	Name  string
	Value int64
	Dur   time.Duration
}

type metricBatch []metric

func (m metricBatch) Len() int { return len(m) }
func (m metricBatch) Columns(reg *pbio.Registry) (*pbio.Plan, pbio.CompressedColumnAppender) {
	return pbio.StructColumns(reg, []metric(m))
}
func (m metricBatch) Shard(sel core.ShardSelector) core.Batch {
	return m.Keep(func(row any) bool { return sel.Match(uint64(row.(*metric).Value)) })
}
func (m metricBatch) Keep(keep func(row any) bool) core.Batch {
	var kept metricBatch
	for i := range m {
		if keep(&m[i]) {
			kept = append(kept, m[i])
		}
	}
	return kept
}
func (metricBatch) Release() {}

func newReg(t testing.TB) *pbio.Registry {
	t.Helper()
	reg := pbio.NewRegistry()
	if err := core.RegisterRecordFormat(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("metric", metric{}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// publishOne publishes a one-record batch: the tests below drive the
// fan-out machinery one record at a time.
func publishOne(b *Broker, channel string, id uint64) error {
	return b.PublishColumns(channel, batchOf(id))
}

func TestLocalPublishSubscribe(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	var got []uint64
	b.Subscribe("lpa.interactions", func(rec any) {
		got = append(got, idsOf(rec)...)
	})
	if err := publishOne(b, "lpa.interactions", 1); err != nil {
		t.Fatal(err)
	}
	if err := publishOne(b, "other.channel", 2); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
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
	var got []uint64
	b.Subscribe("m", func(rec any) { got = append(got, idsOf(rec)[0]) }, WithFilter(evenID))
	for i := uint64(1); i <= 4; i++ {
		_ = publishOne(b, "m", i)
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
	_ = publishOne(b, "m", 0)
	sub.Close()
	sub.Close() // idempotent
	_ = publishOne(b, "m", 0)
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
		if err := publishOne(b, "gpa.feed", 7); err != nil {
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
	cols, ok := rec.Value.(*core.RecordColumns)
	if !ok {
		t.Fatalf("record value type %T", rec.Value)
	}
	if cols.Len() != 1 || cols.Row(0) != batchOf(7).Row(0) {
		t.Fatalf("batch = %+v", cols)
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
		_ = publishOne(b, "unwanted", 1)
		_ = publishOne(b, "wanted", 2)
		if time.Now().After(deadline) {
			t.Fatal("no remote delivery")
		}
		time.Sleep(time.Millisecond)
	}
	ch, rec, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ch != "wanted" || idsOf(rec.Value)[0] != 2 {
		t.Fatalf("got %q %+v", ch, rec.Value)
	}
}

func TestPublishColumnsLocal(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()

	var whole [][]uint64
	b.Subscribe("m", func(rec any) {
		batch, ok := rec.(*core.RecordColumns)
		if !ok {
			t.Errorf("unfiltered subscriber got %T, want *core.RecordColumns", rec)
			return
		}
		// The batch is only valid during the callback; copy it.
		whole = append(whole, append([]uint64(nil), batch.IDs...))
	})

	var even []uint64
	b.Subscribe("m", func(rec any) { even = append(even, idsOf(rec)...) }, WithFilter(evenID))

	none := 0
	b.Subscribe("m", func(any) { none++ },
		WithFilter(func(any) bool { return false }))

	if err := b.PublishColumns("m", batchOf(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("m", batchOf()); err != nil {
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
	if st.Published != 1 {
		t.Fatalf("Published = %d, want 1", st.Published)
	}
	if st.LocalDeliver != 6 { // 4 unfiltered + 2 filtered
		t.Fatalf("LocalDeliver = %d, want 6", st.LocalDeliver)
	}
}

// TestPublishRowsRemote publishes a row-shaped batch — the aggregate
// channel's kind — through the same call: filtered locals see *metric
// rows, and the remote subscriber, whose registry binds no column decoder
// for the format, receives the whole batch in one Recv.
func TestPublishRowsRemote(t *testing.T) {
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
	var odd []int64
	b.Subscribe("m", func(rec any) {
		for _, m := range rec.(metricBatch) {
			odd = append(odd, m.Value)
		}
	}, WithFilter(func(rec any) bool { return rec.(*metric).Value%2 == 1 }))

	batch := metricBatch{{Name: "a", Value: 1, Dur: time.Second}, {Name: "b", Value: 2}, {Name: "c", Value: 3}}
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().RemoteDeliver == 0 {
		if err := b.PublishColumns("m", batch); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("remote subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if len(odd) < 2 || odd[0] != 1 || odd[1] != 3 {
		t.Fatalf("filtered local rows = %v, want 1 3 per publish", odd)
	}

	ch, rec, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rec.Value.([]metric); ch != "m" || !ok || !slices.Equal(got, batch) {
		t.Fatalf("Recv = %q, %+v; want m, %+v", ch, rec.Value, batch)
	}
}

func TestPublishAfterCloseErrors(t *testing.T) {
	b := NewBroker(newReg(t))
	b.Close()
	if err := publishOne(b, "m", 0); !errors.Is(err, ErrClosed) {
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
		_ = publishOne(b, "m", 0)
		if time.Now().After(deadline) {
			t.Fatal("no remote delivery")
		}
		time.Sleep(time.Millisecond)
	}
	sub.Close()
	// The broker drops the dead connection without wedging: its reader
	// sees the close, or its writer's next write fails, whichever comes
	// first. Publishing never errors on the way, and once the connection
	// is gone every record admitted to its queue was either written or
	// counted dropped.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := b.Stats()
		subs := len(b.Subscribers())
		if subs == 0 && st.RemoteEnqueued == st.RemoteDeliver+st.RemoteDropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 5s: %d subscribers, stats %+v; want none, and enqueued == delivered + dropped", subs, st)
		}
		if err := publishOne(b, "m", 0); err != nil {
			t.Fatalf("publish into a dying connection: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := publishOne(b, "m", 0); err != nil {
		t.Fatalf("publish after the drop: %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, "m"); err == nil {
		t.Fatal("dial to closed port should error")
	}
}

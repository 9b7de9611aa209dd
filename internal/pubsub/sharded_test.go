package pubsub

import (
	"net"
	"testing"
	"time"
)

// shardedHarness starts a broker with a value-keyed shard function and
// returns it plus its listen address.
func shardedHarness(t *testing.T) (*Broker, string) {
	t.Helper()
	b := NewBroker(newReg(t))
	b.SetShardKeyFunc(func(rec any) (uint64, bool) {
		switch m := rec.(type) {
		case metric:
			return uint64(m.Value), true
		case *metric:
			return uint64(m.Value), true
		}
		return 0, false
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	t.Cleanup(b.Close)
	return b, l.Addr().String()
}

// drain receives records until the deadline or limit, returning the
// observed metric values.
func drain(t *testing.T, s *Subscriber, want int) []int64 {
	t.Helper()
	vals := make(chan int64, want)
	go func() {
		defer close(vals)
		for i := 0; i < want; i++ {
			_, rec, err := s.Recv()
			if err != nil {
				return
			}
			if m, ok := rec.Value.(*metric); ok {
				vals <- m.Value
			}
		}
	}()
	var out []int64
	deadline := time.After(5 * time.Second)
	for {
		select {
		case v, ok := <-vals:
			if !ok {
				return out
			}
			out = append(out, v)
			if len(out) == want {
				return out
			}
		case <-deadline:
			t.Fatalf("timed out after %d of %d records", len(out), want)
		}
	}
}

// TestShardedSubscribersPartitionStream checks that shard i/N receives
// exactly the records whose shard key maps to it while an unsharded
// subscriber still sees everything.
func TestShardedSubscribersPartitionStream(t *testing.T) {
	b, addr := shardedHarness(t)
	reg := newReg(t)

	shard0, err := DialSharded(addr, reg, 0, 2, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer shard0.Close()
	shard1, err := DialSharded(addr, reg, 1, 2, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer shard1.Close()
	full, err := Dial(addr, reg, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	// Wait until all three handshakes are registered.
	deadline := time.Now().Add(5 * time.Second)
	for len(b.Subscribers()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d, want 3", len(b.Subscribers()))
		}
		time.Sleep(time.Millisecond)
	}

	// Values 0..5 as one-record batches, then 6..11 as one batch: evens
	// to shard 0, odds to shard 1, everything to the unsharded subscriber.
	for v := int64(0); v < 6; v++ {
		if err := publishOne(b, "m", metric{Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]metric, 0, 6)
	for v := int64(6); v < 12; v++ {
		batch = append(batch, metric{Value: v})
	}
	if err := b.PublishBatch("m", batch); err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []int64, wantMod int64, wantLen int) {
		t.Helper()
		if len(got) != wantLen {
			t.Fatalf("%s received %d records %v, want %d", name, len(got), got, wantLen)
		}
		for _, v := range got {
			if wantMod >= 0 && v%2 != wantMod {
				t.Fatalf("%s received out-of-shard value %d (got %v)", name, v, got)
			}
		}
	}
	check("shard0", drain(t, shard0, 6), 0, 6)
	check("shard1", drain(t, shard1, 6), 1, 6)
	check("full", drain(t, full, 12), -1, 12)
}

// TestShardedBroadcastWithoutKeyFunc checks the fail-open contract: with
// no shard key function installed, a sharded subscriber receives the full
// stream (sharding is inert, not a silent drop).
func TestShardedBroadcastWithoutKeyFunc(t *testing.T) {
	b := NewBroker(newReg(t))
	defer b.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()

	sub, err := DialSharded(l.Addr().String(), newReg(t), 1, 4, "m")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.Subscribers()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.PublishBatch("m", []metric{{Value: 1}, {Value: 2}, {Value: 3}}); err != nil {
		t.Fatal(err)
	}
	got := drain(t, sub, 3)
	if len(got) != 3 {
		t.Fatalf("received %v, want all 3 records", got)
	}
}

// TestDialShardedValidation rejects malformed selectors before dialing.
func TestDialShardedValidation(t *testing.T) {
	for _, tc := range [][2]int{{-1, 4}, {4, 4}, {0, 0}, {0, maxShardCount + 1}} {
		if _, err := DialSharded("127.0.0.1:1", nil, tc[0], tc[1], "m"); err == nil {
			t.Fatalf("DialSharded(%d, %d) accepted a bad selector", tc[0], tc[1])
		}
	}
}

// TestSplitByCompressionCutsOrderedRemotes pins the invariant the
// columnar fan-out leans on instead of partitioning per publish: however
// compressed and plain links interleave as they connect, insertRemote
// keeps the compressed ones first, order-preserving filters (what
// dropConn and shard grouping do) keep them first, and
// splitByCompression therefore recovers both classes with one cut.
func TestSplitByCompressionCutsOrderedRemotes(t *testing.T) {
	var remotes []*remoteConn
	wantZ := 0
	for i, z := range []bool{false, true, false, false, true, true, false} {
		remotes = insertRemote(remotes, &remoteConn{columnsZ: z, sel: ShardSelector{Index: uint32(i % 2), Count: 2}})
		if z {
			wantZ++
		}
	}
	check := func(name string, set []*remoteConn, wantZ int) {
		t.Helper()
		compressed, plain := splitByCompression(set, true)
		if len(compressed) != wantZ || len(compressed)+len(plain) != len(set) {
			t.Fatalf("%s: cut %d compressed + %d plain out of %d, want %d compressed",
				name, len(compressed), len(plain), len(set), wantZ)
		}
		for _, rc := range compressed {
			if !rc.columnsZ {
				t.Fatalf("%s: plain link in the compressed class", name)
			}
		}
		for _, rc := range plain {
			if rc.columnsZ {
				t.Fatalf("%s: compressed link in the plain class", name)
			}
		}
		// The broker veto: everything is served plain.
		if z, p := splitByCompression(set, false); len(z) != 0 || len(p) != len(set) {
			t.Fatalf("%s: veto left %d compressed, %d plain", name, len(z), len(p))
		}
	}
	check("all", remotes, wantZ)

	var shard0 []*remoteConn // order-preserving filter, as shard grouping and dropConn build
	z0 := 0
	for _, rc := range remotes {
		if rc.sel.Index == 0 {
			shard0 = append(shard0, rc)
			if rc.columnsZ {
				z0++
			}
		}
	}
	check("shard-0 group", shard0, z0)
	check("empty", nil, 0)
}

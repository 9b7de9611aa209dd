package pubsub

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sysprof/internal/core"
)

// shardedHarness starts a broker and returns it plus its listen address.
func shardedHarness(t *testing.T) (*Broker, string) {
	t.Helper()
	b := NewBroker(newReg(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve(l) }()
	t.Cleanup(b.Close)
	return b, l.Addr().String()
}

// drain receives frames until it has seen want rows or the deadline
// passes, returning the record IDs (or metric values) observed.
func drain(t *testing.T, s *Subscriber, want int) []uint64 {
	t.Helper()
	vals := make(chan uint64, want)
	go func() {
		defer close(vals)
		for n := 0; n < want; {
			_, rec, err := s.Recv()
			if err != nil {
				return
			}
			switch v := rec.Value.(type) {
			case *core.RecordColumns:
				for _, id := range v.IDs {
					vals <- id
				}
				n += v.Len()
			case []metric:
				for _, m := range v {
					vals <- uint64(m.Value)
				}
				n += len(v)
			}
		}
	}()
	var out []uint64
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
// exactly the rows whose own shard key maps to it — the flow hash for
// interaction batches, whatever the batch says for any other kind — while
// an unsharded subscriber still sees everything. No routing hook is
// installed anywhere: the batch carries its key.
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
	waitRegistered(t, b, 3)

	// Records 0..5 as one-record batches, then 6..11 as one batch; then
	// metric rows 12..15, which shard on their value.
	var owned [2][]uint64
	for id := uint64(0); id < 12; id++ {
		sh := flowOf(id).ShardHash() % 2
		owned[sh] = append(owned[sh], id)
	}
	if len(owned[0]) == 0 || len(owned[1]) == 0 {
		t.Fatalf("flows do not spread over both shards: %v", owned)
	}
	for id := uint64(0); id < 6; id++ {
		if err := publishOne(b, "m", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PublishColumns("m", batchOf(6, 7, 8, 9, 10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("m", metricBatch{{Value: 12}, {Value: 13}, {Value: 14}, {Value: 15}}); err != nil {
		t.Fatal(err)
	}
	owned[0] = append(owned[0], 12, 14)
	owned[1] = append(owned[1], 13, 15)

	check := func(name string, got, want []uint64) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s received %v, want %v", name, got, want)
		}
	}
	check("shard0", drain(t, shard0, len(owned[0])), owned[0])
	check("shard1", drain(t, shard1, len(owned[1])), owned[1])
	check("full", drain(t, full, 16), []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Nothing more was queued for anyone: the full stream once, plus each
	// row once more for the shard that owns it.
	if got := b.Stats().RemoteEnqueued; got != 32 {
		t.Fatalf("RemoteEnqueued = %d, want 16 rows to the unsharded link + 16 across the shards", got)
	}
}

// TestDialShardedValidation rejects malformed selectors before dialing:
// the error names the selector, not the unreachable address. 0 of 0 is
// the full stream, as for a Dialer.
func TestDialShardedValidation(t *testing.T) {
	for _, tc := range [][2]int{{-1, 4}, {4, 4}, {1, 0}, {0, maxShardCount + 1}} {
		if _, err := DialSharded("127.0.0.1:1", nil, tc[0], tc[1], "m"); err == nil || !strings.Contains(err.Error(), "bad shard") {
			t.Fatalf("DialSharded(%d, %d) = %v, want a bad-shard error", tc[0], tc[1], err)
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
		remotes = insertRemote(remotes, &remoteConn{columnsZ: z, sel: core.ShardSelector{Index: uint32(i % 2), Count: 2}})
		if z {
			wantZ++
		}
	}
	check := func(name string, set []*remoteConn, wantZ int) {
		t.Helper()
		compressed, plain := splitByCompression(set)
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

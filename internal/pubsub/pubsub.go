// Package pubsub implements the publish-subscribe channels the SysProf
// dissemination daemon uses to ship monitoring data ("kernel-level
// publish-subscribe channels" in the paper). A Broker hosts named
// channels; consumers subscribe locally (in-process callbacks, the
// kernel-level fast path) or remotely over TCP, where records travel as
// PBIO-encoded binary frames. An in-process subscription may carry a
// dynamic data filter; a remote one names channels and optionally a
// shard, and receives every row of those.
//
// There is one publish call, PublishColumns, and one thing it publishes,
// a core.Batch: rows that encode themselves by column and know their own
// shard key. Interaction records and per-class aggregate deltas take the
// same local delivery, shard grouping, frame encode and fan-out.
//
// Remote fan-out is asynchronous: each connection owns a bounded send
// queue drained by a dedicated writer goroutine, so PublishColumns encodes
// once, enqueues a shared frame per subscriber, and returns without ever
// waiting on a socket. A slow or stalled subscriber overflows only its own
// queue — shedding frames per the configured OverflowPolicy and eventually
// being evicted — instead of backing up dissemination for the whole node.
package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/pbio"
)

// ErrClosed is returned from operations on a closed broker or subscriber.
var ErrClosed = errors.New("pubsub: closed")

// Filter decides whether a record is delivered to a subscriber: it is
// asked once per row of a published batch, of the value the batch's Keep
// shows it (a *core.Record for interactions). A nil filter passes
// everything.
type Filter func(rec any) bool

// maxShardCount bounds the shard count a handshake may claim.
const maxShardCount = 4096

// LocalSub is an in-process subscription.
type LocalSub struct {
	broker  *Broker
	channel string
	fn      func(rec any)
	filter  Filter
	closed  bool // guarded by broker.mu
}

// Close cancels the subscription.
func (s *LocalSub) Close() {
	b := s.broker
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	b.mutateLocked(func(m map[string]*subscribers) {
		cur := m[s.channel]
		if cur == nil {
			return
		}
		next := &subscribers{remotes: cur.remotes}
		for _, other := range cur.locals {
			if other != s {
				next.locals = append(next.locals, other)
			}
		}
		m[s.channel] = next
	})
}

// remoteConn is one TCP subscriber connection. The publish path only
// touches q and the counters; conn, sentFormats, and defBuf belong to
// the writer goroutine.
type remoteConn struct {
	conn     net.Conn
	q        *sendQueue
	channels map[string]bool
	// sel restricts this subscriber to one shard of the record stream
	// (zero value = unsharded). Immutable after the handshake, so the
	// publish path reads it without synchronization.
	sel core.ShardSelector
	// columnsZ records that the subscriber asked for per-column
	// compressed (0x05) columnar frames, which every publish honors.
	columnsZ bool

	sentFormats map[*pbio.Format]bool
	defBuf      []byte

	// drain is the writer goroutine's per-frame socket write time, noted by
	// writeLoop and read by the Adaptive overflow policy on the publish path.
	drain DrainEstimate
}

// subscribers is an immutable snapshot of one channel's consumers.
// Mutations build a fresh value under Broker.mu; the publish path reads
// it lock-free through Broker.chans.
type subscribers struct {
	locals  []*LocalSub
	remotes []*remoteConn
}

// BrokerStats counts broker activity. A publish counts once per batch in
// Published and once per record in the deliver counters.
// RemoteEnqueued/RemoteDeliver/RemoteDropped count records per
// subscriber: one batch fanned out to three subscribers adds 3×len(batch).
type BrokerStats struct {
	Published      uint64
	LocalDeliver   uint64
	RemoteDeliver  uint64 // records written to sockets
	RemoteFailures uint64 // connections dropped on write error
	RemoteEnqueued uint64 // records admitted to send queues
	RemoteDropped  uint64 // records shed by the overflow policy, or discarded with a dropped connection
	SlowEvicted    uint64 // subscribers evicted for sustained overflow
}

// SubscriberStats is one remote connection's view of the fan-out.
type SubscriberStats struct {
	Addr           string
	Shard          string // shard selector ("i/N", empty = unsharded)
	Compressed     bool   // subscriber requested compressed (0x05) frames
	Channels       []string
	QueueLen       int
	QueueCap       int
	QueueCounts           // the send queue's traffic, by outcome (Popped includes the frame being written)
	BlockedNanos   uint64 // publisher time spent waiting under BlockWithDeadline
	DrainNanos     int64  // EWMA of per-frame socket write time (adaptive policy input)
	OverflowStreak int64  // consecutive overflowing publishes (0 = keeping up)
}

// Broker hosts named publish-subscribe channels.
type Broker struct {
	mu       sync.Mutex // guards subscription/connection mutations
	reg      *pbio.Registry
	conns    map[*remoteConn]bool
	listener net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool

	// chans is the copy-on-write channel→subscribers map: the publish
	// hot path loads it with one atomic read and never takes mu.
	chans atomic.Pointer[map[string]*subscribers]

	// lastChan is a single-entry channel-name→subscribers cache for the
	// publish paths. It keys on the copy-on-write map snapshot pointer,
	// so any subscribe or unsubscribe invalidates it for free.
	lastChan atomic.Pointer[chanCacheEntry]

	// Fan-out knobs. blockTimeout and evictAfter are fixed at
	// construction; the rest are live, atomically readable mid-publish.
	// queueDepth only applies to subscribers connecting after a change;
	// overflow takes effect immediately for all connections.
	blockTimeout time.Duration
	evictAfter   int
	queueDepth   atomic.Int64
	overflow     atomic.Int32

	published      atomic.Uint64
	localDeliver   atomic.Uint64
	remoteDeliver  atomic.Uint64
	remoteFailures atomic.Uint64
	remoteEnqueued atomic.Uint64
	remoteDropped  atomic.Uint64
	slowEvicted    atomic.Uint64
}

// NewBroker returns a broker encoding remote traffic with reg's formats.
func NewBroker(reg *pbio.Registry, opts ...Option) *Broker {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	b := &Broker{
		reg:          reg,
		conns:        make(map[*remoteConn]bool),
		blockTimeout: cfg.BlockTimeout,
		evictAfter:   cfg.EvictAfterOverflows,
	}
	empty := make(map[string]*subscribers)
	b.chans.Store(&empty)
	b.queueDepth.Store(int64(cfg.QueueDepth))
	b.overflow.Store(int32(cfg.Overflow))
	return b
}

// mutateLocked clones the channel map, applies fn, and publishes the
// result. Callers hold b.mu; fn must replace entries with fresh
// subscribers values, never mutate existing ones.
func (b *Broker) mutateLocked(fn func(m map[string]*subscribers)) {
	old := *b.chans.Load()
	m := make(map[string]*subscribers, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	fn(m)
	b.chans.Store(&m)
}

// SubOption customizes a subscription.
type SubOption func(*LocalSub)

// WithFilter attaches a dynamic data filter to the subscription.
func WithFilter(f Filter) SubOption {
	return func(s *LocalSub) { s.filter = f }
}

// Subscribe registers an in-process consumer of a channel.
func (b *Broker) Subscribe(channelName string, fn func(rec any), opts ...SubOption) *LocalSub {
	s := &LocalSub{broker: b, channel: channelName, fn: fn}
	for _, opt := range opts {
		opt(s)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mutateLocked(func(m map[string]*subscribers) {
		cur := m[channelName]
		next := &subscribers{}
		if cur != nil {
			next.locals = append(append([]*LocalSub(nil), cur.locals...), s)
			next.remotes = cur.remotes
		} else {
			next.locals = []*LocalSub{s}
		}
		m[channelName] = next
	})
	return s
}

// chanCacheEntry is one resolved channel-name→subscribers pair, valid
// for exactly one channel-map snapshot.
type chanCacheEntry struct {
	m    *map[string]*subscribers
	name string
	subs *subscribers
}

// lookupChannel resolves a channel's subscriber snapshot, remembering
// the last hit: a publisher hammers one channel name, so the map lookup
// (string hash + probe) is almost always redundant. Correctness rides on
// the copy-on-write discipline — a cached entry can only be stale if the
// map pointer changed, which the comparison catches.
func (b *Broker) lookupChannel(name string) *subscribers {
	m := b.chans.Load()
	if e := b.lastChan.Load(); e != nil && e.m == m && e.name == name {
		return e.subs
	}
	subs := (*m)[name]
	if subs != nil {
		b.lastChan.Store(&chanCacheEntry{m: m, name: name, subs: subs})
	}
	return subs
}

// hasSharded reports whether any remote in the snapshot carries a shard
// selector (the common unsharded deployment skips all routing work).
//
//sysprof:nonblocking
func hasSharded(remotes []*remoteConn) bool {
	for _, rc := range remotes {
		if rc.sel.Count != 0 {
			return true
		}
	}
	return false
}

// shardGroup is the subscribers that share one shard selector, and so
// one frame of each publish.
type shardGroup struct {
	sel     core.ShardSelector
	remotes []*remoteConn
}

// groupBySelector groups a fan-out set by selector: the unsharded group
// shares one frame of the whole batch, each distinct (index, count) pair
// one filtered frame.
func groupBySelector(remotes []*remoteConn) []shardGroup {
	var groups []shardGroup
next:
	for _, rc := range remotes {
		for gi := range groups {
			if groups[gi].sel == rc.sel {
				groups[gi].remotes = append(groups[gi].remotes, rc)
				continue next
			}
		}
		groups = append(groups, shardGroup{sel: rc.sel, remotes: []*remoteConn{rc}})
	}
	return groups
}

// fanOut enqueues the frame to every remote subscriber. The frame's
// refcount is preset to the fan-out width; each failed admission
// releases its share immediately, each admitted one is released by the
// connection's writer after the socket write.
//
//sysprof:nonblocking
func (b *Broker) fanOut(remotes []*remoteConn, f *frame) {
	//lint:ignore atomicmix sole-owner preset: the queue mutex in enqueue publishes the store to writers before any concurrent release
	f.refs = int64(len(remotes))
	recs := uint64(f.recs)
	policy, timeout := OverflowPolicy(b.overflow.Load()), b.blockTimeout
	var enqueued, dropped uint64
	for _, rc := range remotes {
		a := rc.q.enqueue(f, rc.drain.Resolve(policy, timeout, f.channel), timeout)
		switch a.Outcome {
		case Admitted:
			enqueued += recs
		case Displaced:
			enqueued += recs
			dropped += uint64(a.Evicted.recs)
			a.Evicted.release()
		case Refused:
			// BlockWithDeadline expired: this subscriber misses the new frame.
			f.release()
			dropped += recs
		default: // QueueClosed
			f.release()
		}
		if a.Evict {
			// Sustained overflow: a subscriber that persistently cannot
			// keep up is cheaper gone than throttling the node.
			b.slowEvicted.Add(1)
			b.dropConn(rc)
		}
	}
	// Broker-level counters are contended across publishers, so fold the
	// whole fan-out into at most one locked add each.
	if enqueued > 0 {
		b.remoteEnqueued.Add(enqueued)
	}
	if dropped > 0 {
		b.remoteDropped.Add(dropped)
	}
}

// writeLoop is the per-connection writer goroutine: it drains the send
// queue onto the socket and drops the connection on the first write
// error.
func (b *Broker) writeLoop(rc *remoteConn) {
	defer b.wg.Done()
	for {
		f, ok := rc.q.dequeue()
		if !ok {
			return
		}
		start := time.Now()
		err := rc.writeFrame(f)
		dur := int64(time.Since(start))
		recs := uint64(f.recs)
		channel := f.channel
		f.release()
		if err != nil {
			rc.q.lose(recs)
			b.remoteDropped.Add(recs)
			b.remoteFailures.Add(1)
			b.dropConn(rc)
			return
		}
		rc.drain.Note(channel, dur)
		b.remoteDeliver.Add(recs)
	}
}

// writeFrame writes one shared frame to this connection, splicing the
// format-definition frame between the channel header and the record
// bytes the first time the stream carries this format (the subscriber
// reads the header itself; its PBIO decoder consumes the definition
// transparently before the record).
func (rc *remoteConn) writeFrame(f *frame) error {
	if f.format != nil && !rc.sentFormats[f.format] {
		rc.sentFormats[f.format] = true
		rc.defBuf = f.format.AppendDef(rc.defBuf[:0])
		if _, err := rc.conn.Write(f.buf[:f.hdrLen]); err != nil {
			return err
		}
		if _, err := rc.conn.Write(rc.defBuf); err != nil {
			return err
		}
		_, err := rc.conn.Write(f.buf[f.hdrLen:])
		return err
	}
	_, err := rc.conn.Write(f.buf)
	return err
}

// Stats returns a copy of the broker counters.
func (b *Broker) Stats() BrokerStats {
	return BrokerStats{
		Published:      b.published.Load(),
		LocalDeliver:   b.localDeliver.Load(),
		RemoteDeliver:  b.remoteDeliver.Load(),
		RemoteFailures: b.remoteFailures.Load(),
		RemoteEnqueued: b.remoteEnqueued.Load(),
		RemoteDropped:  b.remoteDropped.Load(),
		SlowEvicted:    b.slowEvicted.Load(),
	}
}

// Subscribers returns per-connection fan-out stats for every live
// remote subscriber.
func (b *Broker) Subscribers() []SubscriberStats {
	b.mu.Lock()
	conns := make([]*remoteConn, 0, len(b.conns))
	for rc := range b.conns {
		conns = append(conns, rc)
	}
	b.mu.Unlock()
	out := make([]SubscriberStats, 0, len(conns))
	for _, rc := range conns {
		m, blockedNanos := rc.q.snapshot()
		chans := make([]string, 0, len(rc.channels))
		for name := range rc.channels {
			chans = append(chans, name)
		}
		out = append(out, SubscriberStats{
			Addr:           rc.conn.RemoteAddr().String(),
			Shard:          rc.sel.String(),
			Compressed:     rc.columnsZ,
			Channels:       chans,
			QueueLen:       m.Len(),
			QueueCap:       len(m.ring),
			QueueCounts:    m.Counts,
			BlockedNanos:   blockedNanos,
			DrainNanos:     rc.drain.nanos.Load(),
			OverflowStreak: m.streak,
		})
	}
	return out
}

// QueueConfig reports the current queue depth and overflow policy name —
// the controller-facing view of the fan-out knobs.
func (b *Broker) QueueConfig() (depth int, policy string) {
	return int(b.queueDepth.Load()), OverflowPolicy(b.overflow.Load()).String()
}

// SetQueueDepth changes the send queue capacity for subscribers that
// connect from now on; existing connections keep their queues.
func (b *Broker) SetQueueDepth(n int) error {
	if n < 1 {
		return fmt.Errorf("pubsub: queue depth %d, want >= 1", n)
	}
	b.queueDepth.Store(int64(n))
	return nil
}

// SetOverflowPolicy changes the full-queue policy for all connections,
// effective on the next publish.
func (b *Broker) SetOverflowPolicy(p OverflowPolicy) { b.overflow.Store(int32(p)) }

// SetOverflowPolicyName is SetOverflowPolicy for string-typed callers
// (the controller command path).
func (b *Broker) SetOverflowPolicyName(name string) error {
	p, err := ParseOverflowPolicy(name)
	if err != nil {
		return err
	}
	b.SetOverflowPolicy(p)
	return nil
}

// Serve accepts remote subscribers on l until the broker is closed. It
// blocks; run it in a goroutine and call Close to stop.
func (b *Broker) Serve(l net.Listener) error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return ErrClosed
	}
	b.listener = l
	b.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if b.closed.Load() {
				return nil
			}
			return fmt.Errorf("pubsub: accept: %w", err)
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handleConn(conn)
		}()
	}
}

// handleConn performs the subscribe handshake, starts the writer
// goroutine, then parks reading (a read returning an error means the
// peer went away).
func (b *Broker) handleConn(conn net.Conn) {
	hs, err := readHandshake(conn)
	if err != nil {
		conn.Close()
		return
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		conn.Close()
		return
	}
	rc := &remoteConn{
		conn:        conn,
		q:           newSendQueue(int(b.queueDepth.Load()), b.evictAfter),
		channels:    make(map[string]bool, len(hs.channels)),
		sel:         hs.sel,
		columnsZ:    hs.columnsZ,
		sentFormats: make(map[*pbio.Format]bool),
	}
	b.conns[rc] = true
	b.mutateLocked(func(m map[string]*subscribers) {
		for _, name := range hs.channels {
			if rc.channels[name] {
				continue
			}
			rc.channels[name] = true
			next := &subscribers{}
			if cur := m[name]; cur != nil {
				next.locals = cur.locals
				next.remotes = cur.remotes
			}
			next.remotes = insertRemote(next.remotes, rc)
			m[name] = next
		}
	})
	b.wg.Add(1)
	b.mu.Unlock()
	go b.writeLoop(rc)

	// Block until the peer disconnects.
	var one [1]byte
	for {
		if _, err := conn.Read(one[:]); err != nil {
			break
		}
	}
	b.dropConn(rc)
}

// insertRemote returns a fresh remotes slice with rc added, keeping the
// connections that negotiated wire compression ahead of the plain ones —
// the order splitByCompression relies on to cut a fan-out set in two
// without partitioning it on every publish.
func insertRemote(cur []*remoteConn, rc *remoteConn) []*remoteConn {
	next := make([]*remoteConn, 0, len(cur)+1)
	if rc.columnsZ {
		return append(append(next, rc), cur...)
	}
	return append(append(next, cur...), rc)
}

// dropConn removes the connection from every channel, closes its socket,
// and shuts its send queue down (releasing any still-queued frames). It
// is idempotent and safe from the publish path, the writer goroutine,
// the reader, and Close.
func (b *Broker) dropConn(rc *remoteConn) {
	b.mu.Lock()
	if !b.conns[rc] {
		b.mu.Unlock()
		return
	}
	delete(b.conns, rc)
	b.mutateLocked(func(m map[string]*subscribers) {
		for name := range rc.channels {
			cur := m[name]
			if cur == nil {
				continue
			}
			next := &subscribers{locals: cur.locals}
			for _, other := range cur.remotes {
				if other != rc {
					next.remotes = append(next.remotes, other)
				}
			}
			m[name] = next
		}
	})
	b.mu.Unlock()
	rc.conn.Close()
	var discarded uint64
	for _, f := range rc.q.close() {
		discarded += uint64(f.recs)
		f.release()
	}
	b.remoteDropped.Add(discarded)
}

// Close shuts the broker down: stops the listener, closes remote
// connections, and waits for connection and writer goroutines to exit.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	b.closed.Store(true)
	l := b.listener
	conns := make([]*remoteConn, 0, len(b.conns))
	for rc := range b.conns {
		conns = append(conns, rc)
	}
	b.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, rc := range conns {
		b.dropConn(rc)
	}
	b.wg.Wait()
}

// Subscriber is the remote (TCP) side: it dials a broker, subscribes to
// channels, and receives batches.
type Subscriber struct {
	conn net.Conn
	dec  *pbio.Decoder
}

// Dial connects to a broker at addr and subscribes to the channels. reg
// supplies local Go types for typed decoding (may be nil).
func Dial(addr string, reg *pbio.Registry, channels ...string) (*Subscriber, error) {
	return Dialer{Registry: reg}.Dial(addr, channels...)
}

// DialSharded connects like Dial but subscribes as shard `shard` of `of`:
// the broker delivers only the rows of each batch whose shard key maps to
// this shard. This is how a federated gpad shard receives exactly its
// slice of the interaction and aggregate streams. 0 of 0 is Dial's full
// stream.
func DialSharded(addr string, reg *pbio.Registry, shard, of int, channels ...string) (*Subscriber, error) {
	return Dialer{Registry: reg, Shard: shard, Of: of}.Dial(addr, channels...)
}

// Dialer is the full-option subscriber constructor: the Dial helpers
// cover the common cases, a Dialer additionally requests per-column wire
// compression on the link (the 0x05 handshake flag).
type Dialer struct {
	// Registry supplies local Go types for typed decoding (may be nil).
	Registry *pbio.Registry
	// Shard/Of subscribe as flow-hash shard Shard of Of (both 0 means
	// unsharded, the full stream).
	Shard, Of int
	// Compress asks the broker for per-column compressed columnar
	// frames, which it serves on every link that asks.
	Compress bool
}

// Dial connects to a broker at addr with the dialer's options. A bad
// shard selector fails before anything is dialed.
func (d Dialer) Dial(addr string, channels ...string) (*Subscriber, error) {
	sel := core.ShardSelector{}
	if d.Shard != 0 || d.Of != 0 {
		if d.Of < 1 || d.Shard < 0 || d.Shard >= d.Of || d.Of > maxShardCount {
			return nil, fmt.Errorf("pubsub: bad shard %d/%d (want 0 <= shard < of <= %d)", d.Shard, d.Of, maxShardCount)
		}
		sel = core.ShardSelector{Index: uint32(d.Shard), Count: uint32(d.Of)}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial %s: %w", addr, err)
	}
	if err := writeHandshakeOpts(conn, channels, sel, d.Compress); err != nil {
		conn.Close()
		return nil, err
	}
	return &Subscriber{conn: conn, dec: pbio.NewDecoder(conn, d.Registry)}, nil
}

// Recv blocks for the next published batch: one channel header, one
// frame, one value. The record's Value is the whole batch — a
// *core.RecordColumns for interactions, a []T for any other registered
// row struct (aggregate deltas arrive as []dissem.WireAggregate) — or nil
// when the frame's format does not match the local one. io.EOF indicates
// the broker closed the connection.
func (s *Subscriber) Recv() (string, *pbio.Record, error) {
	name, err := readString(s.conn)
	if err != nil {
		return "", nil, err
	}
	rec, err := s.dec.Decode()
	if err != nil {
		return "", nil, err
	}
	return name, rec, nil
}

// Close tears the subscription down.
func (s *Subscriber) Close() error { return s.conn.Close() }

// --- wire helpers ---

// Handshake wire format: an 0xFF magic byte, a version byte, a u16
// capability-flags field and a u16 channel count, then the optional
// shard selector and the channel names. There is exactly one accepted
// form — a subscriber gets the stream it asked for or no stream: any
// other version, any flag bit outside the two below, and the pre-magic
// form that led with a channel-count byte are framing errors that close
// the connection.
const (
	handshakeMagic   = 0xFF
	handshakeVersion = 3
	// handshakeFlagShard says an 8-byte shard selector (u32 index, u32
	// count, little-endian) follows the header, before the channel names.
	handshakeFlagShard = 1 << 0
	// handshakeFlagColumnsZ asks for per-column compressed (0x05)
	// columnar frames — the WAN knob for federated shard links, and the
	// one switch for compression: the broker honors it on every link.
	handshakeFlagColumnsZ = 1 << 1

	handshakeKnownFlags = handshakeFlagShard | handshakeFlagColumnsZ

	maxHandshakeChannels = 1024
)

type handshake struct {
	sel      core.ShardSelector
	columnsZ bool
	channels []string
}

func writeHandshakeOpts(w io.Writer, channels []string, sel core.ShardSelector, compress bool) error {
	if len(channels) > maxHandshakeChannels {
		return fmt.Errorf("pubsub: handshake: %d channels exceeds limit %d", len(channels), maxHandshakeChannels)
	}
	var flags uint16
	if compress {
		flags |= handshakeFlagColumnsZ
	}
	if sel.Count != 0 {
		if !sel.Valid() || sel.Count > maxShardCount {
			return fmt.Errorf("pubsub: handshake: bad shard selector %d/%d", sel.Index, sel.Count)
		}
		flags |= handshakeFlagShard
	}
	var hdr [6]byte
	hdr[0] = handshakeMagic
	hdr[1] = handshakeVersion
	binary.LittleEndian.PutUint16(hdr[2:4], flags)
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(channels)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pubsub: handshake: %w", err)
	}
	if flags&handshakeFlagShard != 0 {
		var sb [8]byte
		binary.LittleEndian.PutUint32(sb[0:4], sel.Index)
		binary.LittleEndian.PutUint32(sb[4:8], sel.Count)
		if _, err := w.Write(sb[:]); err != nil {
			return fmt.Errorf("pubsub: handshake: %w", err)
		}
	}
	for _, c := range channels {
		if err := writeString(w, c); err != nil {
			return fmt.Errorf("pubsub: handshake: %w", err)
		}
	}
	return nil
}

func readHandshake(r io.Reader) (handshake, error) {
	// The magic byte is checked before anything else is read, so a peer
	// speaking the old count-byte form is refused on its first byte
	// instead of being waited on for five more.
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return handshake{}, err
	}
	if hdr[0] != handshakeMagic {
		return handshake{}, fmt.Errorf("pubsub: handshake: leading byte 0x%02x, want magic 0x%02x", hdr[0], handshakeMagic)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return handshake{}, err
	}
	if hdr[1] != handshakeVersion {
		return handshake{}, fmt.Errorf("pubsub: handshake: version %d, want %d", hdr[1], handshakeVersion)
	}
	flags := binary.LittleEndian.Uint16(hdr[2:4])
	if unknown := flags &^ handshakeKnownFlags; unknown != 0 {
		return handshake{}, fmt.Errorf("pubsub: handshake: unknown capability flags 0x%04x", unknown)
	}
	count := int(binary.LittleEndian.Uint16(hdr[4:6]))
	if count > maxHandshakeChannels {
		return handshake{}, fmt.Errorf("pubsub: handshake: %d channels exceeds limit %d", count, maxHandshakeChannels)
	}
	hs := handshake{columnsZ: flags&handshakeFlagColumnsZ != 0}
	if flags&handshakeFlagShard != 0 {
		var sb [8]byte
		if _, err := io.ReadFull(r, sb[:]); err != nil {
			return handshake{}, err
		}
		hs.sel.Index = binary.LittleEndian.Uint32(sb[0:4])
		hs.sel.Count = binary.LittleEndian.Uint32(sb[4:8])
		if !hs.sel.Valid() || hs.sel.Count > maxShardCount {
			return handshake{}, fmt.Errorf("pubsub: handshake: bad shard selector %d/%d",
				hs.sel.Index, hs.sel.Count)
		}
	}
	hs.channels = make([]string, 0, count)
	for i := 0; i < count; i++ {
		s, err := readString(r)
		if err != nil {
			return handshake{}, err
		}
		hs.channels = append(hs.channels, s)
	}
	return hs, nil
}

func writeString(w io.Writer, s string) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// appendString appends the wire form of writeString to buf.
func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(r io.Reader) (string, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > 1<<20 {
		return "", fmt.Errorf("pubsub: string length %d exceeds limit", n)
	}
	// The length came off the wire: allocate in bounded chunks so a
	// handshake claiming a megabyte name costs memory only as the peer
	// actually sends it.
	const chunk = 64 << 10
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	out := make([]byte, 0, chunk)
	var tmp [chunk]byte
	for remaining := int(n); remaining > 0; {
		step := remaining
		if step > len(tmp) {
			step = len(tmp)
		}
		if _, err := io.ReadFull(r, tmp[:step]); err != nil {
			return "", err
		}
		out = append(out, tmp[:step]...)
		remaining -= step
	}
	return string(out), nil
}

// Package simnet models the network connecting simulated nodes: addresses,
// flows, packets, and point-to-point links with bandwidth, propagation
// delay, and FIFO serialization queues.
//
// The link model is deliberately simple but captures the two effects the
// SysProf evaluation depends on: per-packet serialization time (bandwidth)
// and propagation delay. A link serializes packets one at a time, so a
// burst of sends queues behind the link exactly like a NIC transmit ring.
package simnet

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"sysprof/internal/sim"
)

// NodeID identifies a simulated machine. IDs are assigned by the Network
// in registration order, starting at 1.
type NodeID uint16

// Addr is a transport endpoint: a node plus a port.
type Addr struct {
	Node NodeID
	Port uint16
}

// String renders the address as "n<node>:<port>".
func (a Addr) String() string {
	var buf [16]byte
	return string(a.Append(buf[:0]))
}

// Append appends the address as String renders it.
func (a Addr) Append(b []byte) []byte {
	b = strconv.AppendUint(append(b, 'n'), uint64(a.Node), 10)
	return strconv.AppendUint(append(b, ':'), uint64(a.Port), 10)
}

// FlowKey identifies a bidirectional conversation by its two endpoints,
// matching the paper's {node_A IP, node_A port} / {node_B IP, node_B port}
// pairs. Canonical returns the direction-independent form used for hashing.
type FlowKey struct {
	Src Addr
	Dst Addr
}

// String renders the flow as "src->dst".
func (k FlowKey) String() string {
	var buf [32]byte
	return string(k.Append(buf[:0]))
}

// Append appends the flow as String renders it, allocating nothing when b
// has room.
func (k FlowKey) Append(b []byte) []byte { return k.Dst.Append(append(k.Src.Append(b), "->"...)) }

// Reverse returns the flow viewed from the opposite direction.
func (k FlowKey) Reverse() FlowKey { return FlowKey{Src: k.Dst, Dst: k.Src} }

// Canonical returns the same key for both directions of a conversation:
// the lexicographically smaller endpoint becomes Src.
func (k FlowKey) Canonical() FlowKey {
	if less(k.Dst, k.Src) {
		return k.Reverse()
	}
	return k
}

func less(a, b Addr) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Port < b.Port
}

// Hash returns an FNV-1a hash of the canonical flow key. The SysProf LPA
// uses it to index its interaction table ("efficient event hashing").
func (k FlowKey) Hash() uint64 {
	c := k.Canonical()
	var h uint64 = 14695981039346656037
	for _, v := range [4]uint16{uint16(c.Src.Node), c.Src.Port, uint16(c.Dst.Node), c.Dst.Port} {
		h ^= uint64(v & 0xff)
		h *= 1099511628211
		h ^= uint64(v >> 8)
		h *= 1099511628211
	}
	return h
}

// ShardHash mixes the canonical four-tuple into the shard key used by
// analyzer sharding — both the GPA's in-process lock stripes and the
// federated gpad tier (shard i of N owns flows with ShardHash()%N == i).
// The fields pack into 64 bits exactly (two 16-bit nodes, two 16-bit
// ports); a splitmix64-style finalizer spreads them so nearby ports and
// node ids land on different shards. Every component that routes by flow
// must use this one function, or records for the same interaction would
// land on different shards and never correlate.
//
//sysprof:nonblocking
func (k FlowKey) ShardHash() uint64 {
	c := k.Canonical()
	x := uint64(c.Src.Node)<<48 | uint64(c.Src.Port)<<32 |
		uint64(c.Dst.Node)<<16 | uint64(c.Dst.Port)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NodeShardHash is the shard key for per-node state that has no flow
// (aggregate deltas published at class granularity): the node is treated
// as the Src endpoint of an otherwise-zero flow. The GPA's shardForNode
// and the dissemination shard router must agree on this mapping.
//
//sysprof:nonblocking
func NodeShardHash(n NodeID) uint64 {
	return FlowKey{Src: Addr{Node: n}}.ShardHash()
}

// Packet is one network packet. Application messages larger than the MSS
// are fragmented into several packets by the sending kernel; the receiving
// kernel reassembles them (see simos). Monitoring observes packets, not
// messages, exactly as in the paper.
type Packet struct {
	Flow    FlowKey // direction of travel: Flow.Src -> Flow.Dst
	MsgID   uint64  // message the packet belongs to
	Seq     int     // fragment index within the message
	Last    bool    // final fragment of the message
	Size    int     // bytes on the wire, headers included
	Payload any     // opaque application payload, set on the last fragment
	// Tag is an optional ARM-style activity identifier propagated by
	// applications that opt into explicit instrumentation (paper §2:
	// interleaved requests need "domain-specific knowledge and/or ARM
	// support"). Zero means untagged.
	Tag uint64
}

const (
	// MTU is the wire maximum transmission unit.
	MTU = 1500
	// HeaderSize approximates combined IP+transport headers.
	HeaderSize = 52
	// MSS is the application payload carried per full packet.
	MSS = MTU - HeaderSize
)

// FragmentCount returns how many packets a message payload of n bytes
// occupies. Zero-length messages still take one packet.
func FragmentCount(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + MSS - 1) / MSS
}

// Host is the interface a node exposes to the network. DeliverPacket is
// invoked by the engine when a packet's last bit arrives at the node.
type Host interface {
	// ID returns the node's identifier, assigned at registration.
	ID() NodeID
	// DeliverPacket receives an inbound packet at the NIC.
	DeliverPacket(p *Packet)
}

// Link is a unidirectional channel between two nodes.
type Link struct {
	eng       *sim.Engine
	src, dst  NodeID  // endpoints, for identity (reports, derived RNG seeds)
	bandwidth float64 // bits per second
	propagate time.Duration
	busyUntil time.Duration
	host      Host
	sent      uint64
	sentBytes uint64
	dropLimit int // max packets queued (0 = unlimited)
	queued    int
	dropped   uint64
	drops     DropStats
	downUntil time.Duration // link failure injection
	// lossRate drops packets at random (failure injection); lossRNG is
	// derived deterministically from the link endpoints when SetLoss is
	// given a nil rng.
	lossRate float64
	lossRNG  *sim.RNG
}

// DropStats attributes link drops to their cause, so a scenario run can
// prove every lost packet is accounted for.
type DropStats struct {
	// Down counts packets rejected at send time because the link was in a
	// failure window.
	Down uint64
	// Queue counts packets rejected because the serialization queue was
	// at its configured cap.
	Queue uint64
	// Loss counts packets dropped by the random-loss model.
	Loss uint64
	// Cut counts packets that were already serialized (in flight) when
	// Fail was called and whose arrival fell inside the failure window.
	Cut uint64
}

// Total sums all drop causes.
func (d DropStats) Total() uint64 { return d.Down + d.Queue + d.Loss + d.Cut }

// Src and Dst return the link's endpoints.
func (l *Link) Src() NodeID { return l.src }

// Dst returns the receiving endpoint.
func (l *Link) Dst() NodeID { return l.dst }

// SetLoss makes the link drop packets with probability rate, using rng
// for reproducible draws. rate 0 disables loss. When rate > 0 and rng is
// nil, a generator is derived deterministically from the link's endpoint
// pair, so chaos configs that omit the RNG still inject the configured
// loss — reproducibly — instead of silently injecting none.
func (l *Link) SetLoss(rate float64, rng *sim.RNG) {
	l.lossRate = rate
	if rate > 0 && rng == nil {
		// The sending endpoint carries a marker port so the two directions
		// of a pair canonicalize differently and draw independent streams.
		rng = sim.NewRNG(int64(FlowKey{Src: Addr{Node: l.src, Port: 1}, Dst: Addr{Node: l.dst}}.ShardHash()))
	}
	l.lossRNG = rng
}

// LinkConfig configures one direction of a link.
type LinkConfig struct {
	// Bandwidth in bits per second. Must be > 0.
	Bandwidth float64
	// Propagation delay (one way).
	Propagation time.Duration
	// QueueLimit caps packets in the serialization queue. 0 disables the
	// cap; when exceeded, packets are dropped (failure injection).
	QueueLimit int
}

// Gbps and Mbps are convenience bandwidth units in bits per second.
const (
	Gbps = 1e9
	Mbps = 1e6
)

// Send enqueues a packet on the link. The packet is delivered to the
// destination host after serialization plus propagation. It reports
// whether the packet was accepted (false when the queue cap is exceeded
// or the link is down).
func (l *Link) Send(p *Packet) bool {
	now := l.eng.Now()
	if now < l.downUntil {
		l.dropped++
		l.drops.Down++
		return false
	}
	if l.dropLimit > 0 && l.queued >= l.dropLimit {
		l.dropped++
		l.drops.Queue++
		return false
	}
	if l.lossRate > 0 && l.lossRNG != nil && l.lossRNG.Float64() < l.lossRate {
		l.dropped++
		l.drops.Loss++
		return false
	}
	ser := time.Duration(float64(p.Size*8) / l.bandwidth * float64(time.Second))
	start := l.busyUntil
	if start < now {
		start = now
	}
	l.busyUntil = start + ser
	arrive := l.busyUntil + l.propagate
	l.queued++
	l.eng.Schedule(arrive, func() {
		l.queued--
		// A failure injected after this packet was serialized cuts it if
		// its last bit would arrive inside the failure window: the wire
		// went dark underneath it.
		if l.eng.Now() < l.downUntil {
			l.dropped++
			l.drops.Cut++
			return
		}
		l.sent++
		l.sentBytes += uint64(p.Size)
		l.host.DeliverPacket(p)
	})
	return true
}

// Fail takes the link down for d: packets sent while down are dropped,
// and packets already serialized whose arrival falls inside the window
// are cut (dropped at what would have been their delivery instant, and
// counted in DropStats.Cut). Overlapping failures extend each other — a
// second, shorter outage injected during a longer one never heals the
// link early.
func (l *Link) Fail(d time.Duration) {
	until := l.eng.Now() + d
	if until > l.downUntil {
		l.downUntil = until
	}
}

// Down reports whether the link is currently inside a failure window.
func (l *Link) Down() bool { return l.eng.Now() < l.downUntil }

// Stats reports packets delivered, bytes delivered, and packets dropped.
func (l *Link) Stats() (packets, bytes, dropped uint64) {
	return l.sent, l.sentBytes, l.dropped
}

// Drops returns the per-cause drop counters. Their sum equals the
// dropped total from Stats.
func (l *Link) Drops() DropStats { return l.drops }

// Queued returns packets currently in the serialization queue.
func (l *Link) Queued() int { return l.queued }

// Network wires hosts together with links and routes packets.
type Network struct {
	eng   *sim.Engine
	hosts map[NodeID]Host
	links map[[2]NodeID]*Link
	next  NodeID
	deflt LinkConfig
}

// NewNetwork returns a network using eng for time. The default link config
// (applied by Connect when no explicit config is given) is 1 Gbps with
// 50 µs propagation delay, matching the paper's testbed LAN.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{
		eng:   eng,
		hosts: make(map[NodeID]Host),
		links: make(map[[2]NodeID]*Link),
		next:  1,
		deflt: LinkConfig{Bandwidth: Gbps, Propagation: 50 * time.Microsecond},
	}
}

// SetDefaultLink changes the config used by Connect.
func (n *Network) SetDefaultLink(cfg LinkConfig) { n.deflt = cfg }

// AllocateID reserves the next node ID. Hosts call this during
// construction, then Register themselves.
func (n *Network) AllocateID() NodeID {
	id := n.next
	n.next++
	return id
}

// Register adds a host so packets can be routed to it. It returns an error
// if the ID is already taken.
func (n *Network) Register(h Host) error {
	if _, ok := n.hosts[h.ID()]; ok {
		return fmt.Errorf("simnet: node %d already registered", h.ID())
	}
	n.hosts[h.ID()] = h
	return nil
}

// Connect creates bidirectional links between a and b with the default
// config, or reconfigures the existing links between the pair.
func (n *Network) Connect(a, b NodeID) error {
	return n.ConnectWith(a, b, n.deflt)
}

// ConnectWith creates bidirectional links between a and b with cfg. If
// the pair is already connected the live links are reconfigured in
// place rather than replaced: in-flight scheduled deliveries, queue
// occupancy, and traffic counters stay attached to the link the caller
// observes through Network.Link. Reconnecting also clears any failure
// window and loss injection — re-provisioning a link heals it — which
// is what a scenario's partition-heal step relies on.
func (n *Network) ConnectWith(a, b NodeID, cfg LinkConfig) error {
	if cfg.Bandwidth <= 0 {
		return fmt.Errorf("simnet: connect %d-%d: bandwidth must be positive", a, b)
	}
	ha, ok := n.hosts[a]
	if !ok {
		return fmt.Errorf("simnet: connect: node %d not registered", a)
	}
	hb, ok := n.hosts[b]
	if !ok {
		return fmt.Errorf("simnet: connect: node %d not registered", b)
	}
	n.provision(a, b, hb, cfg)
	n.provision(b, a, ha, cfg)
	return nil
}

// provision creates or reconfigures the directed link src->dst.
func (n *Network) provision(src, dst NodeID, host Host, cfg LinkConfig) {
	key := [2]NodeID{src, dst}
	l := n.links[key]
	if l == nil {
		n.links[key] = &Link{
			eng: n.eng, src: src, dst: dst, host: host,
			bandwidth: cfg.Bandwidth, propagate: cfg.Propagation,
			dropLimit: cfg.QueueLimit,
		}
		return
	}
	l.bandwidth = cfg.Bandwidth
	l.propagate = cfg.Propagation
	l.dropLimit = cfg.QueueLimit
	l.downUntil = 0
	l.lossRate = 0
	l.lossRNG = nil
}

// Link returns the directed link from a to b, or nil if none exists.
func (n *Network) Link(a, b NodeID) *Link { return n.links[[2]NodeID{a, b}] }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// ForEachLink visits every directed link in deterministic (src, dst)
// order, so seeded chaos schedules and run reports that sample or
// aggregate over links are reproducible.
func (n *Network) ForEachLink(fn func(l *Link)) {
	keys := make([][2]NodeID, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fn(n.links[k])
	}
}

// Transmit sends a packet from its flow source node toward its flow
// destination node. It reports whether a link existed and accepted the
// packet.
func (n *Network) Transmit(p *Packet) bool {
	l := n.links[[2]NodeID{p.Flow.Src.Node, p.Flow.Dst.Node}]
	if l == nil {
		return false
	}
	return l.Send(p)
}

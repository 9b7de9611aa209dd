// Package controller implements the SysProf controller: the management
// component that "regulates the granularity and the amounts of information
// monitored and analyzed by SysProf". It can retarget LPA event masks,
// switch between per-interaction and per-class statistics, resize windows
// and dissemination buffers, and install or remove E-Code custom analyzers
// — all at runtime.
//
// Besides the Go API, the controller speaks a line-oriented text protocol
// (one command per line, one reply per command) so it can be driven
// remotely by cmd/sysprofctl.
package controller

import (
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
	"sysprof/internal/lineproto"
)

// ErrUnknownTarget is returned when a node or analyzer name is not
// registered.
var ErrUnknownTarget = errors.New("controller: unknown target")

// Flusher is the dissemination-daemon surface the controller manages:
// how often a node pushes partial buffers and aggregate deltas out. It is
// an interface (satisfied by *dissem.Daemon) so the controller does not
// depend on the dissemination package.
type Flusher interface {
	FlushInterval() time.Duration
	SetFlushInterval(time.Duration) error
}

// FanOut is the pub-sub broker surface the controller manages: the
// per-subscriber send-queue depth and overflow policy for remote
// fan-out. It is an interface (satisfied by *pubsub.Broker) so the
// controller does not depend on the pubsub package.
type FanOut interface {
	// QueueConfig returns the current queue depth and overflow policy name.
	QueueConfig() (depth int, policy string)
	// SetQueueDepth changes the queue depth for future subscribers.
	SetQueueDepth(n int) error
	// SetOverflowPolicyName switches the overflow policy ("drop"/"block").
	SetOverflowPolicyName(name string) error
	// WireCompression reports whether compressed columnar wire frames
	// are enabled for subscribers that negotiated them.
	WireCompression() bool
	// SetWireCompression toggles compressed columnar wire frames for
	// negotiating subscribers (takes effect on the next publish).
	SetWireCompression(on bool)
}

// Federation is the federated-GPA frontend surface the controller
// manages: the shard endpoint list and the frontend's own query/admin
// command set (retention, clock bounds, liveness). It is an interface
// (satisfied by *gpa.Frontend) so the controller does not depend on the
// gpa package.
type Federation interface {
	// Endpoints returns the shard query endpoints (index i = shard i/N).
	Endpoints() []string
	// SetEndpoints replaces the shard endpoint list.
	SetEndpoints(endpoints []string) error
	// Execute runs one frontend command ("federation", "retention <n>",
	// "clockbound <node> <duration>", ...).
	Execute(line string) (string, error)
}

// NTPMonitor is the clock-monitor surface the controller manages: the
// automatic error-bound re-measurement cadence plus a forced measure.
// It is an interface (satisfied by *ntpclock.Monitor) so the controller
// does not depend on the ntpclock package.
type NTPMonitor interface {
	// Interval reports the current re-measurement cadence.
	Interval() time.Duration
	// SetInterval changes the cadence (takes effect at the next tick).
	SetInterval(time.Duration) error
	// RemeasureNow runs one measurement immediately and returns the
	// offset estimate and the fresh clock-error bound.
	RemeasureNow() (offset, bound time.Duration)
}

// target is one managed node.
type target struct {
	hub    *kprof.Hub
	lpas   map[string]*core.LPA
	cpas   map[string]*core.CPA
	daemon Flusher
	broker FanOut
	ntp    NTPMonitor
}

// Controller manages the SysProf components of one or more nodes.
type Controller struct {
	mu      sync.Mutex
	targets map[string]*target
	emit    core.EmitFunc // where installed CPAs publish
	// federation is the optional federated-GPA frontend (system-wide, not
	// per node).
	federation Federation
}

// New returns an empty controller. emit receives values published by
// CPAs installed through the controller (may be nil).
func New(emit core.EmitFunc) *Controller {
	return &Controller{targets: make(map[string]*target), emit: emit}
}

// RegisterNode makes a node's hub manageable under the given name.
func (c *Controller) RegisterNode(name string, hub *kprof.Hub) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.targets[name]; ok {
		return fmt.Errorf("controller: node %q already registered", name)
	}
	c.targets[name] = &target{
		hub:  hub,
		lpas: make(map[string]*core.LPA),
		cpas: make(map[string]*core.CPA),
	}
	return nil
}

// AttachLPA registers an analyzer for management.
func (c *Controller) AttachLPA(node, name string, lpa *core.LPA) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	t.lpas[name] = lpa
	return nil
}

// AttachDaemon registers a node's dissemination daemon so its flush
// cadence can be retuned at runtime.
func (c *Controller) AttachDaemon(node string, d Flusher) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	t.daemon = d
	return nil
}

// AttachBroker registers a node's pub-sub broker so its remote fan-out
// queues can be retuned at runtime.
func (c *Controller) AttachBroker(node string, b FanOut) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	t.broker = b
	return nil
}

// AttachNTP registers a node's NTP clock monitor so its re-measurement
// cadence can be retuned (and a measurement forced) at runtime.
func (c *Controller) AttachNTP(node string, m NTPMonitor) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	t.ntp = m
	return nil
}

// ntp resolves a node's attached clock monitor.
func (c *Controller) ntp(node string) (NTPMonitor, error) {
	c.mu.Lock()
	t := c.targets[node]
	c.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	if t.ntp == nil {
		return nil, fmt.Errorf("%w: node %q has no NTP monitor attached", ErrUnknownTarget, node)
	}
	return t.ntp, nil
}

// AttachFederation registers the federated-GPA frontend so its shard
// topology and retention can be driven through the management protocol.
func (c *Controller) AttachFederation(f Federation) error {
	if f == nil {
		return errors.New("controller: nil federation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.federation != nil {
		return errors.New("controller: federation already attached")
	}
	c.federation = f
	return nil
}

func (c *Controller) fed() (Federation, error) {
	c.mu.Lock()
	f := c.federation
	c.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("%w: no federation attached", ErrUnknownTarget)
	}
	return f, nil
}

func (c *Controller) broker(node string) (FanOut, error) {
	c.mu.Lock()
	t := c.targets[node]
	c.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	if t.broker == nil {
		return nil, fmt.Errorf("%w: no broker attached to node %q", ErrUnknownTarget, node)
	}
	return t.broker, nil
}

// SetPubSubQueueDepth retunes a node's per-subscriber send-queue depth
// (applies to subscribers connecting after the change).
func (c *Controller) SetPubSubQueueDepth(node string, depth int) error {
	b, err := c.broker(node)
	if err != nil {
		return err
	}
	return b.SetQueueDepth(depth)
}

// SetPubSubOverflowPolicy switches a node's fan-out overflow policy.
func (c *Controller) SetPubSubOverflowPolicy(node, policy string) error {
	b, err := c.broker(node)
	if err != nil {
		return err
	}
	return b.SetOverflowPolicyName(policy)
}

// SetPubSubWireCompression toggles a node's compressed columnar wire
// frames for subscribers that negotiated them.
func (c *Controller) SetPubSubWireCompression(node string, on bool) error {
	b, err := c.broker(node)
	if err != nil {
		return err
	}
	b.SetWireCompression(on)
	return nil
}

// SetFlushInterval retunes a node's dissemination flush period.
func (c *Controller) SetFlushInterval(node string, iv time.Duration) error {
	c.mu.Lock()
	t := c.targets[node]
	c.mu.Unlock()
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	if t.daemon == nil {
		return fmt.Errorf("%w: no daemon attached to node %q", ErrUnknownTarget, node)
	}
	return t.daemon.SetFlushInterval(iv)
}

func (c *Controller) lpa(node, name string) (*core.LPA, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return nil, fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	l := t.lpas[name]
	if l == nil {
		return nil, fmt.Errorf("%w: lpa %q on node %q", ErrUnknownTarget, name, node)
	}
	return l, nil
}

// SetGranularity switches an LPA between per-interaction records and
// per-class aggregates.
func (c *Controller) SetGranularity(node, lpaName string, g core.Granularity) error {
	l, err := c.lpa(node, lpaName)
	if err != nil {
		return err
	}
	l.SetGranularity(g)
	return nil
}

// SetEventMask changes the kernel event set an LPA receives.
func (c *Controller) SetEventMask(node, lpaName string, mask kprof.Mask) error {
	l, err := c.lpa(node, lpaName)
	if err != nil {
		return err
	}
	l.Subscription().SetMask(mask)
	return nil
}

// SetWindowSize resizes an LPA's interaction window.
func (c *Controller) SetWindowSize(node, lpaName string, size int) error {
	l, err := c.lpa(node, lpaName)
	if err != nil {
		return err
	}
	l.Window().Resize(size)
	return nil
}

// SetBufferCapacity resizes an LPA's per-CPU dissemination buffers.
func (c *Controller) SetBufferCapacity(node, lpaName string, capacity int) error {
	l, err := c.lpa(node, lpaName)
	if err != nil {
		return err
	}
	for i := 0; i < l.Buffers().NumCPUs(); i++ {
		l.Buffers().Buffer(i).SetCapacity(capacity)
	}
	return nil
}

// SetPIDFilter restricts an LPA to events from one process (pid > 0) or
// clears the restriction (pid <= 0). This is the paper's event pruning
// "on the basis of process IDs".
func (c *Controller) SetPIDFilter(node, lpaName string, pid int32) error {
	l, err := c.lpa(node, lpaName)
	if err != nil {
		return err
	}
	if pid <= 0 {
		l.Subscription().SetPIDFilter(nil)
		return nil
	}
	l.Subscription().SetPIDFilter(func(p int32) bool { return p == pid })
	return nil
}

// InstallCPA compiles and installs an E-Code analyzer on a node.
func (c *Controller) InstallCPA(node, name, src string, mask kprof.Mask) error {
	c.mu.Lock()
	t := c.targets[node]
	if t == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	if _, ok := t.cpas[name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("controller: cpa %q already installed on %q", name, node)
	}
	hub := t.hub
	c.mu.Unlock()

	// Verifying, compiling and subscribing run unlocked, so a concurrent
	// install of the same name may have won the map entry meanwhile: the
	// loser must leave the hub, or it would run forever where neither
	// "cpa list" nor "cpa remove" can see it.
	cpa, err := core.NewCPA(hub, name, src, mask, c.emit)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := t.cpas[name]; ok {
		cpa.Close()
		return fmt.Errorf("controller: cpa %q already installed on %q", name, node)
	}
	t.cpas[name] = cpa
	return nil
}

// ListCPAs renders one line per installed analyzer on a node: name,
// verifier cost estimate, run and error counters.
func (c *Controller) ListCPAs(node string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return "", fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	names := make([]string, 0, len(t.cpas))
	for name := range t.cpas {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		cpa := t.cpas[name]
		runs, errs, _ := cpa.Stats()
		fmt.Fprintf(&sb, "cpa %s: cost=%d runs=%d errs=%d\n", name, cpa.Cost(), runs, errs)
	}
	if sb.Len() == 0 {
		return "no cpas installed", nil
	}
	return strings.TrimRight(sb.String(), "\n"), nil
}

// RemoveCPA uninstalls an analyzer.
func (c *Controller) RemoveCPA(node, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[node]
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, node)
	}
	cpa := t.cpas[name]
	if cpa == nil {
		return fmt.Errorf("%w: cpa %q on node %q", ErrUnknownTarget, name, node)
	}
	cpa.Close()
	delete(t.cpas, name)
	return nil
}

// Status renders a human-readable summary of everything managed.
func (c *Controller) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]string, 0, len(c.targets))
	for n := range c.targets {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var sb strings.Builder
	for _, n := range nodes {
		t := c.targets[n]
		st := t.hub.StatsSnapshot()
		fmt.Fprintf(&sb, "node %s: emitted=%d delivered=%d suppressed=%d overhead=%v",
			n, st.Emitted, st.Delivered, st.Suppressed, st.Overhead)
		if t.daemon != nil {
			fmt.Fprintf(&sb, " flush=%v", t.daemon.FlushInterval())
		}
		if t.broker != nil {
			depth, policy := t.broker.QueueConfig()
			fmt.Fprintf(&sb, " pubsub=%d/%s", depth, policy)
		}
		if t.ntp != nil {
			fmt.Fprintf(&sb, " ntp=%v", t.ntp.Interval())
		}
		sb.WriteByte('\n')
		lpas := make([]string, 0, len(t.lpas))
		for name := range t.lpas {
			lpas = append(lpas, name)
		}
		sort.Strings(lpas)
		for _, name := range lpas {
			l := t.lpas[name]
			ls := l.Stats()
			gran := "interaction"
			if l.Granularity() == core.PerClass {
				gran = "class"
			}
			fmt.Fprintf(&sb, "  lpa %s: granularity=%s events=%d interactions=%d window=%d/%d\n",
				name, gran, ls.Events, ls.Interactions, l.Window().Len(), l.Window().Size())
		}
		cpas := make([]string, 0, len(t.cpas))
		for name := range t.cpas {
			cpas = append(cpas, name)
		}
		sort.Strings(cpas)
		for _, name := range cpas {
			runs, errs, _ := t.cpas[name].Stats()
			fmt.Fprintf(&sb, "  cpa %s: cost=%d runs=%d errs=%d\n", name, t.cpas[name].Cost(), runs, errs)
		}
	}
	return sb.String()
}

// maskFromSpec parses a comma-separated list of event groups:
// all, sched, syscall, net, fs, default (the interaction LPA's set).
func maskFromSpec(spec string) (kprof.Mask, error) {
	var m kprof.Mask
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "all":
			m |= kprof.MaskAll()
		case "sched":
			m |= kprof.MaskScheduling()
		case "syscall":
			m |= kprof.MaskSyscall()
		case "net":
			m |= kprof.MaskNetwork()
		case "fs":
			m |= kprof.MaskFS()
		case "default":
			m |= core.MaskDefault()
		case "none":
		default:
			return 0, fmt.Errorf("controller: unknown event group %q", part)
		}
	}
	return m, nil
}

// Execute runs one text command and returns its reply. Commands:
//
//	status
//	granularity <node> <lpa> interaction|class
//	mask <node> <lpa> <groups>         groups: all,sched,syscall,net,fs,default,none
//	window <node> <lpa> <size>
//	bufcap <node> <lpa> <capacity>
//	pidfilter <node> <lpa> <pid>|off
//	flushinterval <node> <duration>    e.g. 250ms, 2s
//	ntpinterval <node> [<dur>|now]     clock re-measurement cadence / force one
//	pubsubqueue <node> <depth>         send-queue depth for new subscribers
//	pubsubpolicy <node> drop|block|adaptive  fan-out overflow policy
//	wirecompress <node> on|off         compressed columnar wire frames
//	cpa install <node> <name> <groups> <base64-source>
//	cpa remove <node> <name>
//	cpa list <node>
//
// "cpa install" carries its source as base64, which keeps multi-line
// E-Code intact across the line-oriented protocol (sysprofctl encodes a
// file). The program is verified node-side before it touches the event
// hub; rejections return the verifier's evidence chains.
//
// Federation commands (require AttachFederation):
//
//	federation status                    shard liveness + endpoints (JSON)
//	federation endpoints                 current shard endpoint list
//	federation set-endpoints <a,b,...>   replace the shard endpoint list
//	federation retention <n>             per-shard correlated-history cap
//	federation clockbound <node> <dur>   broadcast a node clock-error bound
//
// All numeric arguments are range-checked: sizes and depths must fit the
// documented bounds, PIDs must fit int32, durations must be positive.
// Out-of-range input is rejected with an error rather than truncated
// into a different — valid-looking — value.
func (c *Controller) Execute(line string) (string, error) {
	line = strings.TrimSpace(line)
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", errors.New("controller: empty command")
	}
	switch fields[0] {
	case "status":
		return c.Status(), nil
	case "granularity":
		if len(fields) != 4 {
			return "", errors.New("controller: usage: granularity <node> <lpa> interaction|class")
		}
		var g core.Granularity
		switch fields[3] {
		case "interaction":
			g = core.PerInteraction
		case "class":
			g = core.PerClass
		default:
			return "", fmt.Errorf("controller: bad granularity %q", fields[3])
		}
		return "ok", c.SetGranularity(fields[1], fields[2], g)
	case "mask":
		if len(fields) != 4 {
			return "", errors.New("controller: usage: mask <node> <lpa> <groups>")
		}
		m, err := maskFromSpec(fields[3])
		if err != nil {
			return "", err
		}
		return "ok", c.SetEventMask(fields[1], fields[2], m)
	case "pidfilter":
		if len(fields) != 4 {
			return "", errors.New("controller: usage: pidfilter <node> <lpa> <pid>|off")
		}
		if fields[3] == "off" {
			return "ok", c.SetPIDFilter(fields[1], fields[2], 0)
		}
		// ParseInt with bitSize 31: a pid that does not fit int32 is an
		// input error, not a filter on whatever it wraps to.
		pid, err := strconv.ParseInt(fields[3], 10, 31)
		if err != nil || pid <= 0 {
			return "", fmt.Errorf("controller: bad pid %q (want 1..2147483647 or off)", fields[3])
		}
		return "ok", c.SetPIDFilter(fields[1], fields[2], int32(pid))
	case "window", "bufcap":
		if len(fields) != 4 {
			return "", fmt.Errorf("controller: usage: %s <node> <lpa> <n>", fields[0])
		}
		n, err := parseSize(fields[3])
		if err != nil {
			return "", err
		}
		if fields[0] == "window" {
			return "ok", c.SetWindowSize(fields[1], fields[2], n)
		}
		return "ok", c.SetBufferCapacity(fields[1], fields[2], n)
	case "flushinterval":
		if len(fields) != 3 {
			return "", errors.New("controller: usage: flushinterval <node> <duration>")
		}
		iv, err := time.ParseDuration(fields[2])
		if err != nil || iv <= 0 {
			return "", fmt.Errorf("controller: bad duration %q (want positive, e.g. 250ms)", fields[2])
		}
		return "ok", c.SetFlushInterval(fields[1], iv)
	case "ntpinterval":
		if len(fields) < 2 || len(fields) > 3 {
			return "", errors.New("controller: usage: ntpinterval <node> [<duration>|now]")
		}
		m, err := c.ntp(fields[1])
		if err != nil {
			return "", err
		}
		if len(fields) == 2 {
			return fmt.Sprintf("interval=%v", m.Interval()), nil
		}
		if fields[2] == "now" {
			offset, bound := m.RemeasureNow()
			return fmt.Sprintf("offset=%v bound=%v", offset, bound), nil
		}
		iv, err := time.ParseDuration(fields[2])
		if err != nil || iv <= 0 {
			return "", fmt.Errorf("controller: bad duration %q (want positive, e.g. 30s, or now)", fields[2])
		}
		if err := m.SetInterval(iv); err != nil {
			return "", fmt.Errorf("controller: %v", err)
		}
		return "ok", nil
	case "pubsubqueue":
		if len(fields) != 3 {
			return "", errors.New("controller: usage: pubsubqueue <node> <depth>")
		}
		depth, err := parseSize(fields[2])
		if err != nil {
			return "", err
		}
		return "ok", c.SetPubSubQueueDepth(fields[1], depth)
	case "pubsubpolicy":
		if len(fields) != 3 {
			return "", errors.New("controller: usage: pubsubpolicy <node> drop|block|adaptive")
		}
		return "ok", c.SetPubSubOverflowPolicy(fields[1], fields[2])
	case "wirecompress":
		if len(fields) != 3 {
			return "", errors.New("controller: usage: wirecompress <node> on|off")
		}
		var on bool
		switch fields[2] {
		case "on":
			on = true
		case "off":
		default:
			return "", fmt.Errorf("controller: bad wirecompress state %q (want on or off)", fields[2])
		}
		return "ok", c.SetPubSubWireCompression(fields[1], on)
	case "cpa":
		if len(fields) < 2 {
			return "", errors.New("controller: usage: cpa install|remove|list ...")
		}
		switch fields[1] {
		case "install":
			if len(fields) != 6 {
				return "", errors.New("controller: usage: cpa install <node> <name> <groups> <base64-source>")
			}
			m, err := maskFromSpec(fields[4])
			if err != nil {
				return "", err
			}
			src, err := base64.StdEncoding.DecodeString(fields[5])
			if err != nil {
				return "", fmt.Errorf("controller: bad base64 source: %v", err)
			}
			if err := c.InstallCPA(fields[2], fields[3], string(src), m); err != nil {
				return "", err
			}
			return "ok", nil
		case "remove":
			if len(fields) != 4 {
				return "", errors.New("controller: usage: cpa remove <node> <name>")
			}
			return "ok", c.RemoveCPA(fields[2], fields[3])
		case "list":
			if len(fields) != 3 {
				return "", errors.New("controller: usage: cpa list <node>")
			}
			return c.ListCPAs(fields[2])
		}
		return "", fmt.Errorf("controller: unknown cpa command %q", fields[1])
	case "federation":
		f, err := c.fed()
		if err != nil {
			return "", err
		}
		if len(fields) < 2 {
			return "", errors.New("controller: usage: federation status|endpoints|set-endpoints|retention|clockbound ...")
		}
		switch fields[1] {
		case "status":
			return f.Execute("federation")
		case "endpoints":
			return strings.Join(f.Endpoints(), ","), nil
		case "set-endpoints":
			if len(fields) != 3 {
				return "", errors.New("controller: usage: federation set-endpoints <addr,addr,...>")
			}
			var eps []string
			for _, a := range strings.Split(fields[2], ",") {
				if a = strings.TrimSpace(a); a != "" {
					eps = append(eps, a)
				}
			}
			if err := f.SetEndpoints(eps); err != nil {
				return "", err
			}
			return fmt.Sprintf("ok shards=%d", len(eps)), nil
		case "retention":
			if len(fields) != 3 {
				return "", errors.New("controller: usage: federation retention <max-correlated>")
			}
			// Validated here as well as in the shards: reject before
			// broadcasting rather than failing N times remotely.
			n, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil || n < 0 {
				return "", fmt.Errorf("controller: bad retention %q (want integer >= 0)", fields[2])
			}
			return f.Execute("retention " + strconv.FormatInt(n, 10))
		case "clockbound":
			if len(fields) != 4 {
				return "", errors.New("controller: usage: federation clockbound <node> <duration>")
			}
			return f.Execute("clockbound " + fields[2] + " " + fields[3])
		}
		return "", fmt.Errorf("controller: unknown federation command %q", fields[1])
	}
	return "", fmt.Errorf("controller: unknown command %q", fields[0])
}

// maxSize bounds resize arguments (windows, buffer capacities, queue
// depths). A stray extra digit in a command should be rejected, not
// allocate gigabytes on the monitored node.
const maxSize = 1 << 22

// parseSize parses a positive size/depth argument with the maxSize bound.
func parseSize(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil || n < 1 || n > maxSize {
		return 0, fmt.Errorf("controller: bad size %q (want 1..%d)", s, maxSize)
	}
	return int(n), nil
}

// ServeConn handles one management connection: a command per line, a
// reply per command, in lineproto's framing.
func (c *Controller) ServeConn(conn io.ReadWriter) { lineproto.ServeConn(conn, c.Execute) }

// Serve accepts management connections until the listener closes.
func (c *Controller) Serve(l net.Listener) { lineproto.Serve(l, c.Execute) }

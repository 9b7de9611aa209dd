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
// per-subscriber send-queue depth for remote fan-out. It is an interface
// (satisfied by *pubsub.Broker) so the controller does not depend on the
// pubsub package.
type FanOut interface {
	// QueueConfig returns the current queue depth.
	QueueConfig() (depth int)
	// SetQueueDepth changes the queue depth for future subscribers.
	SetQueueDepth(n int) error
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

// node runs f on a registered node's entry, under the lock: the one
// place a node name is resolved.
func (c *Controller) node(name string, f func(*target) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.targets[name]
	if t == nil {
		return fmt.Errorf("%w: node %q", ErrUnknownTarget, name)
	}
	return f(t)
}

// AttachLPA registers an analyzer for management.
func (c *Controller) AttachLPA(node, name string, lpa *core.LPA) error {
	return c.node(node, func(t *target) error { t.lpas[name] = lpa; return nil })
}

// AttachDaemon registers a node's dissemination daemon so its flush
// cadence can be retuned at runtime.
func (c *Controller) AttachDaemon(node string, d Flusher) error {
	return c.node(node, func(t *target) error { t.daemon = d; return nil })
}

// AttachBroker registers a node's pub-sub broker so its remote fan-out
// queues can be retuned at runtime.
func (c *Controller) AttachBroker(node string, b FanOut) error {
	return c.node(node, func(t *target) error { t.broker = b; return nil })
}

// AttachNTP registers a node's NTP clock monitor so its re-measurement
// cadence can be retuned (and a measurement forced) at runtime.
func (c *Controller) AttachNTP(node string, m NTPMonitor) error {
	return c.node(node, func(t *target) error { t.ntp = m; return nil })
}

// attached resolves what get finds on a node; finding nothing is an
// unknown target, told in missing's words.
func attached[P comparable](c *Controller, node string, get func(*target) P, missing string, args ...any) (p P, err error) {
	err = c.node(node, func(t *target) error {
		var none P
		if p = get(t); p == none {
			return fmt.Errorf("%w: %s", ErrUnknownTarget, fmt.Sprintf(missing, args...))
		}
		return nil
	})
	return p, err
}

// InstallCPA compiles and installs an E-Code analyzer on a node.
func (c *Controller) InstallCPA(node, name, src string, mask kprof.Mask) error {
	var hub *kprof.Hub
	taken := func(t *target) error {
		if _, ok := t.cpas[name]; ok {
			return fmt.Errorf("controller: cpa %q already installed on %q", name, node)
		}
		hub = t.hub
		return nil
	}
	if err := c.node(node, taken); err != nil {
		return err
	}
	// Verifying, compiling and subscribing run unlocked, so a concurrent
	// install of the same name may have won the map entry meanwhile: the
	// loser must leave the hub, or it would run forever where neither
	// "cpa list" nor "cpa remove" can see it.
	cpa, err := core.NewCPA(hub, name, src, mask, c.emit)
	if err != nil {
		return err
	}
	return c.node(node, func(t *target) error {
		if err := taken(t); err != nil {
			cpa.Close()
			return err
		}
		t.cpas[name] = cpa
		return nil
	})
}

// ListCPAs renders one line per installed analyzer on a node: name,
// verifier cost estimate, run and error counters.
func (c *Controller) ListCPAs(node string) (out string, err error) {
	err = c.node(node, func(t *target) error {
		if out = strings.TrimRight(t.cpaLines(""), "\n"); out == "" {
			out = "no cpas installed"
		}
		return nil
	})
	return out, err
}

// names returns a map's keys in order.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// cpaLines renders the node's installed analyzers in name order.
func (t *target) cpaLines(indent string) string {
	var sb strings.Builder
	for _, name := range names(t.cpas) {
		runs, errs, _ := t.cpas[name].Stats()
		fmt.Fprintf(&sb, "%scpa %s: cost=%d runs=%d errs=%d\n", indent, name, t.cpas[name].Cost(), runs, errs)
	}
	return sb.String()
}

// RemoveCPA uninstalls an analyzer.
func (c *Controller) RemoveCPA(node, name string) error {
	return c.node(node, func(t *target) error {
		cpa := t.cpas[name]
		if cpa == nil {
			return fmt.Errorf("%w: cpa %q on node %q", ErrUnknownTarget, name, node)
		}
		cpa.Close()
		delete(t.cpas, name)
		return nil
	})
}

// Status renders a human-readable summary of everything managed.
func (c *Controller) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb strings.Builder
	for _, n := range names(c.targets) {
		t := c.targets[n]
		st := t.hub.StatsSnapshot()
		fmt.Fprintf(&sb, "node %s: emitted=%d delivered=%d suppressed=%d overhead=%v",
			n, st.Emitted, st.Delivered, st.Suppressed, st.Overhead)
		if t.daemon != nil {
			fmt.Fprintf(&sb, " flush=%v", t.daemon.FlushInterval())
		}
		if t.broker != nil {
			fmt.Fprintf(&sb, " pubsub=%d", t.broker.QueueConfig())
		}
		if t.ntp != nil {
			fmt.Fprintf(&sb, " ntp=%v", t.ntp.Interval())
		}
		sb.WriteByte('\n')
		for _, name := range names(t.lpas) {
			l := t.lpas[name]
			ls := l.Stats()
			gran := "interaction"
			if l.Granularity() == core.PerClass {
				gran = "class"
			}
			fmt.Fprintf(&sb, "  lpa %s: granularity=%s events=%d interactions=%d window=%d/%d\n",
				name, gran, ls.Events, ls.Interactions, l.Window().Len(), l.Window().Size())
		}
		sb.WriteString(t.cpaLines("  "))
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

// commands is the management protocol: every verb the controller
// answers, beside "help", which lists them. A reply is "ok" unless the
// row says otherwise.
//
// All numeric arguments are range-checked: sizes and depths must fit the
// documented bounds, PIDs must fit int32, durations must be positive.
// Out-of-range input is rejected with an error rather than truncated
// into a different — valid-looking — value, and before the node it names
// is looked up.
var commands = &lineproto.Table[*Controller]{Pkg: "controller", Noun: "command", Rows: []lineproto.Command[*Controller]{
	{Name: "status", Help: "every node's counters and knobs, its analyzers beneath it",
		Run: func(c *Controller, _ []string) (string, error) { return c.Status(), nil }},
	{Name: "granularity", Args: "<node> <lpa> interaction|class", Run: (*Controller).granularity,
		Help: "publish per-interaction records or per-class aggregates"},
	{Name: "mask", Args: "<node> <lpa> <groups>", Run: (*Controller).mask,
		Help: "kernel event groups the analyzer receives: all,sched,syscall,net,fs,default,none"},
	{Name: "window", Args: "<node> <lpa> <n>", Run: (*Controller).window,
		Help: "resize the analyzer's interaction window"},
	{Name: "bufcap", Args: "<node> <lpa> <n>", Run: (*Controller).bufCap,
		Help: "resize the analyzer's per-CPU dissemination buffers"},
	{Name: "pidfilter", Args: "<node> <lpa> <pid>|off", Run: (*Controller).pidFilter,
		Help: "prune the analyzer's events to one process"},
	{Name: "flushinterval", Args: "<node> <duration>", Run: (*Controller).flushInterval,
		Help: "how often the node pushes partial buffers out, e.g. 250ms"},
	{Name: "ntpinterval", Args: "<node> [<duration>|now]", Run: (*Controller).ntpInterval,
		Help: "clock re-measurement cadence: show it, set it, or measure now"},
	{Name: "pubsubqueue", Args: "<node> <depth>", Run: (*Controller).pubSubQueue,
		Help: "send-queue depth for subscribers that connect from now on"},
	// The source travels as base64, which keeps multi-line E-Code whole
	// on a line protocol (sysprofctl encodes a file). The node verifies
	// it before it touches the event hub; a rejection is the verifier's
	// evidence chain.
	{Name: "cpa install", Args: "<node> <name> <groups> <base64-source>", Run: (*Controller).cpaInstall,
		Help: "verify, compile and run an E-Code analyzer on the node's events"},
	{Name: "cpa remove", Args: "<node> <name>", Help: "uninstall an analyzer",
		Run: func(c *Controller, a []string) (string, error) { return ok(c.RemoveCPA(a[0], a[1])) }},
	{Name: "cpa list", Args: "<node>", Help: "installed analyzers: verifier cost, runs, errors",
		Run: func(c *Controller, a []string) (string, error) { return c.ListCPAs(a[0]) }},
}}

// Execute runs one text command and returns its reply; "help" lists the
// commands.
func (c *Controller) Execute(line string) (string, error) {
	return commands.Run(c, strings.Fields(line))
}

// ok is the reply of a knob that took.
func ok(err error) (string, error) {
	if err != nil {
		return "", err
	}
	return "ok", nil
}

// onLPA turns one knob of the analyzer a[0] a[1] names.
func (c *Controller) onLPA(a []string, set func(*core.LPA)) (string, error) {
	l, err := attached(c, a[0], func(t *target) *core.LPA { return t.lpas[a[1]] }, "lpa %q on node %q", a[1], a[0])
	if err != nil {
		return "", err
	}
	set(l)
	return "ok", nil
}

func (c *Controller) granularity(a []string) (string, error) {
	var g core.Granularity
	switch a[2] {
	case "interaction":
		g = core.PerInteraction
	case "class":
		g = core.PerClass
	default:
		return "", fmt.Errorf("controller: bad granularity %q", a[2])
	}
	return c.onLPA(a, func(l *core.LPA) { l.SetGranularity(g) })
}

func (c *Controller) mask(a []string) (string, error) {
	m, err := maskFromSpec(a[2])
	if err != nil {
		return "", err
	}
	return c.onLPA(a, func(l *core.LPA) { l.Subscription().SetMask(m) })
}

// pidFilter is the paper's event pruning "on the basis of process IDs".
func (c *Controller) pidFilter(a []string) (string, error) {
	var keep func(int32) bool
	if a[2] != "off" {
		// ParseInt with bitSize 31: a pid that does not fit int32 is an
		// input error, not a filter on whatever it wraps to.
		pid, err := strconv.ParseInt(a[2], 10, 31)
		if err != nil || pid <= 0 {
			return "", fmt.Errorf("controller: bad pid %q (want 1..2147483647 or off)", a[2])
		}
		keep = func(p int32) bool { return p == int32(pid) }
	}
	return c.onLPA(a, func(l *core.LPA) { l.Subscription().SetPIDFilter(keep) })
}

func (c *Controller) window(a []string) (string, error) {
	n, err := parseSize(a[2])
	if err != nil {
		return "", err
	}
	return c.onLPA(a, func(l *core.LPA) { l.Window().Resize(n) })
}

func (c *Controller) bufCap(a []string) (string, error) {
	n, err := parseSize(a[2])
	if err != nil {
		return "", err
	}
	return c.onLPA(a, func(l *core.LPA) {
		for i := 0; i < l.Buffers().NumCPUs(); i++ {
			l.Buffers().Buffer(i).SetCapacity(n)
		}
	})
}

func (c *Controller) flushInterval(a []string) (string, error) {
	iv, err := time.ParseDuration(a[1])
	if err != nil || iv <= 0 {
		return "", fmt.Errorf("controller: bad duration %q (want positive, e.g. 250ms)", a[1])
	}
	d, err := attached(c, a[0], func(t *target) Flusher { return t.daemon }, "no daemon attached to node %q", a[0])
	if err != nil {
		return "", err
	}
	return ok(d.SetFlushInterval(iv))
}

func (c *Controller) ntpInterval(a []string) (string, error) {
	m, err := attached(c, a[0], func(t *target) NTPMonitor { return t.ntp }, "node %q has no NTP monitor attached", a[0])
	switch {
	case err != nil:
		return "", err
	case len(a) == 1:
		return fmt.Sprintf("interval=%v", m.Interval()), nil
	case a[1] == "now":
		offset, bound := m.RemeasureNow()
		return fmt.Sprintf("offset=%v bound=%v", offset, bound), nil
	}
	iv, err := time.ParseDuration(a[1])
	if err != nil || iv <= 0 {
		return "", fmt.Errorf("controller: bad duration %q (want positive, e.g. 30s, or now)", a[1])
	}
	if err := m.SetInterval(iv); err != nil {
		return "", fmt.Errorf("controller: %v", err)
	}
	return "ok", nil
}

// onBroker turns one knob of a node's pub-sub broker.
func (c *Controller) onBroker(node string, set func(FanOut) error) (string, error) {
	b, err := attached(c, node, func(t *target) FanOut { return t.broker }, "no broker attached to node %q", node)
	if err != nil {
		return "", err
	}
	return ok(set(b))
}

func (c *Controller) pubSubQueue(a []string) (string, error) {
	depth, err := parseSize(a[1])
	if err != nil {
		return "", err
	}
	return c.onBroker(a[0], func(b FanOut) error { return b.SetQueueDepth(depth) })
}

func (c *Controller) cpaInstall(a []string) (string, error) {
	m, err := maskFromSpec(a[2])
	if err != nil {
		return "", err
	}
	src, err := base64.StdEncoding.DecodeString(a[3])
	if err != nil {
		return "", fmt.Errorf("controller: bad base64 source: %v", err)
	}
	return ok(c.InstallCPA(a[0], a[1], string(src), m))
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

package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file implements the minimal TOML subset scenarios are written in —
// no third-party dependency, just what the schema needs:
//
//	top-level keys, [table] headers, [[array-of-tables]] headers
//	key = "string" | integer | float | true/false
//	durations are quoted strings in time.ParseDuration syntax ("250ms")
//	# comments and blank lines
//
// Dotted keys, inline tables, arrays, multi-line strings, and dates are
// rejected with a line-numbered error rather than silently misparsed.

// tomlDoc is a parsed scenario file: top-level scalars, named tables, and
// named arrays of tables.
type tomlDoc struct {
	top    map[string]tomlValue
	tables map[string]map[string]tomlValue
	arrays map[string][]map[string]tomlValue
}

// tomlValue is one scalar with its source line (for bind errors).
type tomlValue struct {
	s      string // string form
	isStr  bool   // came from a quoted string
	isBool bool
	b      bool
	line   int
}

// parseTOML parses src into a document.
func parseTOML(src string) (*tomlDoc, error) {
	doc := &tomlDoc{
		top:    map[string]tomlValue{},
		tables: map[string]map[string]tomlValue{},
		arrays: map[string][]map[string]tomlValue{},
	}
	cur := doc.top
	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "[["):
			if !strings.HasSuffix(line, "]]") {
				return nil, fmt.Errorf("line %d: malformed table-array header %q", lineNo, line)
			}
			name := strings.TrimSpace(line[2 : len(line)-2])
			if name == "" || strings.ContainsAny(name, "[]. ") {
				return nil, fmt.Errorf("line %d: bad table-array name %q", lineNo, name)
			}
			m := map[string]tomlValue{}
			doc.arrays[name] = append(doc.arrays[name], m)
			cur = m
		case strings.HasPrefix(line, "["):
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("line %d: malformed table header %q", lineNo, line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" || strings.ContainsAny(name, "[]. ") {
				return nil, fmt.Errorf("line %d: bad table name %q", lineNo, name)
			}
			if _, dup := doc.tables[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate table [%s]", lineNo, name)
			}
			m := map[string]tomlValue{}
			doc.tables[name] = m
			cur = m
		default:
			eq := strings.Index(line, "=")
			if eq < 1 {
				return nil, fmt.Errorf("line %d: expected key = value, got %q", lineNo, line)
			}
			key := strings.TrimSpace(line[:eq])
			if strings.ContainsAny(key, ". \t\"") {
				return nil, fmt.Errorf("line %d: unsupported key %q (dotted/quoted keys not in the scenario subset)", lineNo, key)
			}
			if _, dup := cur[key]; dup {
				return nil, fmt.Errorf("line %d: duplicate key %q", lineNo, key)
			}
			val, err := parseTOMLValue(strings.TrimSpace(line[eq+1:]), lineNo)
			if err != nil {
				return nil, err
			}
			cur[key] = val
		}
	}
	return doc, nil
}

func parseTOMLValue(s string, line int) (tomlValue, error) {
	if s == "" {
		return tomlValue{}, fmt.Errorf("line %d: missing value", line)
	}
	if s[0] == '"' {
		end := strings.IndexByte(s[1:], '"')
		if end < 0 {
			return tomlValue{}, fmt.Errorf("line %d: unterminated string", line)
		}
		rest := strings.TrimSpace(s[end+2:])
		if rest != "" && !strings.HasPrefix(rest, "#") {
			return tomlValue{}, fmt.Errorf("line %d: trailing content %q after string", line, rest)
		}
		body := s[1 : end+1]
		if strings.ContainsAny(body, "\\") {
			return tomlValue{}, fmt.Errorf("line %d: escape sequences not in the scenario subset", line)
		}
		return tomlValue{s: body, isStr: true, line: line}, nil
	}
	if hash := strings.IndexByte(s, '#'); hash >= 0 {
		s = strings.TrimSpace(s[:hash])
	}
	switch s {
	case "true":
		return tomlValue{s: s, isBool: true, b: true, line: line}, nil
	case "false":
		return tomlValue{s: s, isBool: true, line: line}, nil
	}
	if _, err := strconv.ParseFloat(s, 64); err != nil {
		return tomlValue{}, fmt.Errorf("line %d: unsupported value %q (subset: string, number, bool)", line, s)
	}
	return tomlValue{s: s, line: line}, nil
}

// binder reads typed values out of one table, tracking unknown keys.
type binder struct {
	section string
	kv      map[string]tomlValue
	used    map[string]bool
	err     error
}

func newBinder(section string, kv map[string]tomlValue) *binder {
	return &binder{section: section, kv: kv, used: map[string]bool{}}
}

func (b *binder) lookup(key string) (tomlValue, bool) {
	v, ok := b.kv[key]
	if ok {
		b.used[key] = true
	}
	return v, ok
}

func (b *binder) fail(key string, v tomlValue, want string) {
	if b.err == nil {
		b.err = fmt.Errorf("line %d: %s.%s: want %s, got %q", v.line, b.section, key, want, v.s)
	}
}

func (b *binder) str(key string, dst *string) {
	if v, ok := b.lookup(key); ok {
		if !v.isStr {
			b.fail(key, v, "string")
			return
		}
		*dst = v.s
	}
}

func (b *binder) integer(key string, dst *int) {
	if v, ok := b.lookup(key); ok {
		n, err := strconv.Atoi(v.s)
		if err != nil || v.isStr || v.isBool {
			b.fail(key, v, "integer")
			return
		}
		*dst = n
	}
}

func (b *binder) int64v(key string, dst *int64) {
	if v, ok := b.lookup(key); ok {
		n, err := strconv.ParseInt(v.s, 10, 64)
		if err != nil || v.isStr || v.isBool {
			b.fail(key, v, "integer")
			return
		}
		*dst = n
	}
}

func (b *binder) float(key string, dst *float64) {
	if v, ok := b.lookup(key); ok {
		f, err := strconv.ParseFloat(v.s, 64)
		if err != nil || v.isStr || v.isBool {
			b.fail(key, v, "number")
			return
		}
		*dst = f
	}
}

func (b *binder) duration(key string, dst *time.Duration) {
	if v, ok := b.lookup(key); ok {
		if !v.isStr {
			b.fail(key, v, `duration string like "250ms"`)
			return
		}
		d, err := time.ParseDuration(v.s)
		if err != nil {
			b.fail(key, v, `duration string like "250ms"`)
			return
		}
		*dst = d
	}
}

// finish reports the first bind error or any key the schema does not
// know, so typos fail loudly instead of silently keeping a default.
func (b *binder) finish() error {
	if b.err != nil {
		return b.err
	}
	for key, v := range b.kv {
		if !b.used[key] {
			return fmt.Errorf("line %d: unknown key %s.%s", v.line, b.section, key)
		}
	}
	return nil
}

// ParseSpec parses a scenario written in the TOML subset and normalizes
// it. See Builtins for equivalent Go-declared scenarios.
func ParseSpec(src string) (Spec, error) {
	doc, err := parseTOML(src)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	var spec Spec
	top := newBinder("scenario", doc.top)
	top.str("name", &spec.Name)
	top.int64v("seed", &spec.Seed)
	top.duration("duration", &spec.Duration)
	top.duration("grace", &spec.Grace)
	if err := top.finish(); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}

	if kv, ok := doc.tables["fleet"]; ok {
		b := newBinder("fleet", kv)
		b.integer("nodes", &spec.Fleet.Nodes)
		b.str("startup", &spec.Fleet.Startup)
		b.duration("startup_span", &spec.Fleet.StartupSpan)
		b.integer("waves", &spec.Fleet.Waves)
		b.integer("peers_per_client", &spec.Fleet.PeersPerClient)
		if err := b.finish(); err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
	}
	if kv, ok := doc.tables["monitor"]; ok {
		b := newBinder("monitor", kv)
		m := &spec.Monitor
		b.integer("shards", &m.Shards)
		b.integer("queue_depth", &m.QueueDepth)
		b.duration("drain_per_frame", &m.DrainPerFrame)
		b.duration("block_timeout", &m.BlockTimeout)
		b.integer("evict_after", &m.EvictAfter)
		b.duration("correlation_window", &m.CorrelationWindow)
		b.duration("query_interval", &m.QueryInterval)
		b.duration("query_timeout", &m.QueryTimeout)
		if err := b.finish(); err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
	}
	if kv, ok := doc.tables["guard"]; ok {
		b := newBinder("guard", kv)
		b.float("min_correlation_rate", &spec.Guard.MinCorrelationRate)
		b.float("max_timeout_fraction", &spec.Guard.MaxTimeoutFraction)
		if err := b.finish(); err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
	}
	for i, kv := range doc.arrays["template"] {
		b := newBinder(fmt.Sprintf("template[%d]", i), kv)
		var t Template
		b.str("name", &t.Name)
		b.integer("weight", &t.Weight)
		b.str("role", &t.Role)
		b.integer("cpus", &t.CPUs)
		b.float("rate", &t.Rate)
		b.integer("req_size", &t.ReqSize)
		b.integer("resp_size", &t.RespSize)
		b.integer("slots", &t.Slots)
		b.duration("timeout", &t.Timeout)
		b.integer("workers", &t.Workers)
		b.duration("service_time", &t.ServiceTime)
		b.float("bandwidth", &t.Bandwidth)
		b.duration("propagation", &t.Propagation)
		b.integer("queue_limit", &t.QueueLimit)
		b.duration("flush_interval", &t.FlushInterval)
		b.integer("buffer_cap", &t.BufferCap)
		b.integer("window_size", &t.WindowSize)
		if err := b.finish(); err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
		spec.Templates = append(spec.Templates, t)
	}
	for i, kv := range doc.arrays["chaos"] {
		b := newBinder(fmt.Sprintf("chaos[%d]", i), kv)
		ev := ChaosEvent{Shard: -1}
		b.duration("at", &ev.At)
		b.str("kind", &ev.Kind)
		b.duration("duration", &ev.Duration)
		b.integer("count", &ev.Count)
		b.float("fraction", &ev.Fraction)
		b.float("rate", &ev.Rate)
		b.float("factor", &ev.Factor)
		b.duration("period", &ev.Period)
		b.integer("shard", &ev.Shard)
		if err := b.finish(); err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
		spec.Chaos = append(spec.Chaos, ev)
	}
	for name := range doc.tables {
		switch name {
		case "fleet", "monitor", "guard":
		default:
			return Spec{}, fmt.Errorf("scenario: unknown table [%s]", name)
		}
	}
	for name := range doc.arrays {
		switch name {
		case "template", "chaos":
		default:
			return Spec{}, fmt.Errorf("scenario: unknown table array [[%s]]", name)
		}
	}
	if err := spec.Normalize(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

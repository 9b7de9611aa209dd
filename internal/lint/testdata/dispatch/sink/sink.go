// Package sink is the interface-dispatch fixture: two implementations
// of the same interface, only one of which is ever converted to it.
// MemSink is what Default returns. NetSink satisfies Sink too and its
// Write blocks on a net.Conn; nothing converts a NetSink to Sink, yet
// class-hierarchy resolution keeps it a target of every call through
// Sink. The resolution over-approximates: it may report a path no value
// takes, never miss one a value does.
package sink

import "net"

// Sink receives emitted records.
type Sink interface {
	Write(b []byte)
}

// MemSink buffers records in memory; Write never blocks.
type MemSink struct {
	buf []byte
}

func (s *MemSink) Write(b []byte) {
	s.buf = append(s.buf, b...)
}

// NetSink forwards records to a network peer; Write can stall on a
// slow connection. It is never converted to Sink in this module.
type NetSink struct {
	conn net.Conn
}

func (s *NetSink) Write(b []byte) {
	if s.conn != nil {
		s.conn.Write(b)
	}
}

// Default returns the in-memory sink, the module's only conversion to
// Sink.
func Default() Sink {
	return &MemSink{}
}

// Package emitn holds the annotated entry point of the dispatch
// fixture: Emit calls through sink.Sink. Interface calls resolve by the
// class hierarchy, so every implementation of Sink is a dispatch
// target — the blocking NetSink included, although no value of it is
// ever converted to Sink — and Emit is a finding.
package emitn

import "dispatchmod/sink"

//sysprof:nonblocking
func Emit(s sink.Sink, b []byte) {
	s.Write(b)
}

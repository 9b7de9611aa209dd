package controller

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzExecute feeds arbitrary command lines to the management-protocol
// parser. The controller is empty (no registered nodes), so any
// command that parses still fails target lookup before touching live
// components — which means the fuzzer exercises every tokenizing and
// range-checking path with no side effects to corrupt.
//
// Invariants: the parser never panics, and on an empty controller the
// only lines that can succeed are "status" and "help" (everything else
// must fail validation or target lookup).
func FuzzExecute(f *testing.F) {
	// Every verb as its usage line spells it, and once with arguments of
	// the right count that get past validation.
	for _, row := range commands.Rows {
		f.Add(row.Usage())
	}
	for _, s := range []string{
		"help",
		"granularity web interactions class",
		"mask web interactions sched,net",
		"pidfilter web interactions off",
		"ntpinterval web now",
		"cpa install web big net c3RhdGljIGludCBuID0gMDsgcmV0dXJuIG47", // static int n = 0; return n;
		// Malformed arguments of the right count.
		"cpa install web x net not*base64",
		"granularity web interactions Class",
		"mask web interactions net,,bogus",
		// Range-check edges: overflow wraps, negatives, absurd sizes.
		"pidfilter web interactions 4294967296",
		"pidfilter web interactions -1",
		"window web interactions 999999999999",
		"window web interactions 4194304", // maxSize: valid, then lookup fails
		"bufcap web interactions 4194305", // one past maxSize
		"ntpinterval web 0s",
		"pubsubqueue web 0",
		"flushinterval web -5s",
		"federation retention -1",
		"",
		"   ",
		"window web interactions " + strings.Repeat("9", 400),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		c := New(nil)
		reply, err := c.Execute(line)
		if err != nil {
			return
		}
		if fields := strings.Fields(line); len(fields) == 0 || fields[0] != "status" && fields[0] != "help" {
			t.Fatalf("empty controller accepted %q (reply %q)", line, reply)
		}
		if !utf8.ValidString(reply) {
			t.Fatalf("reply to %q is not valid UTF-8", line)
		}
	})
}

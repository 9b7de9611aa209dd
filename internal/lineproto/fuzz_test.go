package lineproto

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadReply drives the remote-query reply framing ("+payload" lines
// terminated by a lone '.', or a one-line "-error") with arbitrary
// bytes. Invariants: ReadReply never panics, never returns both a
// payload and an error, and any successfully parsed payload that the
// serving side could actually have produced (no lone "." line, no
// carriage returns — ServeConn never emits either) survives a
// re-frame/re-parse round trip unchanged.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+ok\n.\n"))
	f.Add([]byte("-gpa: empty query\n"))
	f.Add([]byte("+line one\nline two\n.\n"))
	f.Add([]byte("+\n.\n"))
	f.Add([]byte("+truncated payload without terminator\n"))
	f.Add([]byte("no sigil\n"))
	f.Add([]byte("+a\n..\n.\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadReply(bytes.NewReader(data))
		if err != nil {
			if payload != "" {
				t.Fatalf("error %v alongside non-empty payload %q", err, payload)
			}
			return
		}
		for _, line := range strings.Split(payload, "\n") {
			if line == "." {
				// A lone-dot line is the frame terminator; the server
				// never emits one inside a payload, so the parse result
				// is allowed to be frame-ambiguous here.
				return
			}
		}
		if strings.ContainsRune(payload, '\r') {
			// bufio line splitting strips \r, so re-framing would not be
			// byte-identical; the server never emits \r.
			return
		}
		reframed := "+" + payload + "\n.\n"
		back, err := ReadReply(strings.NewReader(reframed))
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", reframed, err)
		}
		if back != payload {
			t.Fatalf("round trip changed payload:\n was %q\n now %q", payload, back)
		}
	})
}

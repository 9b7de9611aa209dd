package lineproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// FuzzReadReply drives the remote-query reply framing ("+payload" lines
// terminated by a lone '.', or a one-line "-error") with arbitrary
// bytes. Invariants: ReadReply never panics, never returns both a
// payload and an error, and any successfully parsed payload that the
// serving side could actually have produced (no lone "." line, no
// carriage returns — ServeConn never emits either) survives a
// re-frame/re-parse round trip unchanged. Every input also goes through
// scanReply, a bufio.Scanner parser of the same grammar that is free to
// read past the reply, and through a reader with bufio's smallest buffer:
// all agree on the payload and on whether there is an error.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+ok\n.\n"))
	f.Add([]byte("-gpa: empty query\n"))
	f.Add([]byte("+line one\nline two\n.\n"))
	f.Add([]byte("+\n.\n"))
	f.Add([]byte("+truncated payload without terminator\n"))
	f.Add([]byte("no sigil\n"))
	f.Add([]byte("+a\n..\n.\n"))
	f.Add([]byte(""))
	// Lines longer than the reader's buffer, as a pcorrelated page is: the
	// fuzz body also parses through bufio's smallest reader (16 bytes), so
	// that inputs the engine can minimize quickly still cross the buffer.
	f.Add([]byte("+a page is one line of tens of kilobytes\r\n.\n"))
	f.Add([]byte("+fourteen bytes\n" + "sixteen bytes ..\n" + "seventeen bytes ..\n."))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadReply(bytes.NewReader(data))
		if want, wantErr := scanReply(bytes.NewReader(data)); payload != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadReply = %q, %v; the scanner parser says %q, %v", payload, err, want, wantErr)
		}
		if small, smallErr := readReply(bufio.NewReaderSize(bytes.NewReader(data), 16)); small != payload || (smallErr == nil) != (err == nil) {
			t.Fatalf("ReadReply = %q, %v; through a 16-byte reader %q, %v", payload, err, small, smallErr)
		}
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

// scanReply is the reference parser: one bufio.Scanner over the stream.
func scanReply(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxReplyLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	first := sc.Text()
	switch {
	case strings.HasPrefix(first, "-"):
		return "", errors.New(strings.TrimPrefix(first, "-"))
	case strings.HasPrefix(first, "+"):
		var sb strings.Builder
		sb.WriteString(strings.TrimPrefix(first, "+"))
		for sc.Scan() {
			line := sc.Text()
			if line == "." {
				return sb.String(), nil
			}
			sb.WriteByte('\n')
			sb.WriteString(line)
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	return "", fmt.Errorf("malformed reply line %q", first)
}

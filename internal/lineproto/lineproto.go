// Package lineproto is the management line protocol the controller, the
// GPA query servers and their clients speak: one command per line; the
// reply is "+payload" — possibly many lines — closed by a lone ".", or
// the single line "-error".
package lineproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
)

const (
	// maxCommand bounds one command line (an install-cpa command carries
	// base64 E-Code source).
	maxCommand = 1 << 20
	// maxReplyLine bounds one reply line: a correlated page is a single
	// line covering a shard's whole retained history.
	maxReplyLine = 1 << 26
)

// ServeConn answers the commands arriving on one connection with exec
// until the peer closes it or a write fails.
func ServeConn(conn io.ReadWriter, exec func(string) (string, error)) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxCommand)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		reply, err := exec(sc.Text())
		if err != nil {
			// An error reply is one protocol line: a multi-line error (a
			// verifier evidence chain) is flattened. Clients that want
			// the full chain verify locally before installing.
			msg := strings.ReplaceAll(strings.TrimRight(err.Error(), "\n"), "\n", " | ")
			fmt.Fprintf(w, "-%s\n", strings.ReplaceAll(msg, "\t", " "))
		} else {
			fmt.Fprintf(w, "+%s\n.\n", strings.TrimRight(reply, "\n"))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Serve accepts connections until the listener closes, answering each
// on its own goroutine.
func Serve(l net.Listener, exec func(string) (string, error)) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			ServeConn(conn, exec)
		}()
	}
}

// ReadReply reads one reply: the payload of a "+" reply, the message of
// a "-" reply as an error, io.ErrUnexpectedEOF if the stream ends before
// the reply does.
func ReadReply(r io.Reader) (string, error) {
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

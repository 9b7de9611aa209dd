// Package lineproto is the management line protocol the controller, the
// GPA query servers and their clients speak: one command per line; the
// reply is "+payload" — possibly many lines — closed by a lone ".", or
// the single line "-error".
package lineproto

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

const (
	// maxCommand bounds one command line (a "cpa install" command carries
	// base64 E-Code source).
	maxCommand = 1 << 20
	// maxReplyLine bounds one reply line: a correlated page is a single
	// line covering a shard's whole retained history.
	maxReplyLine = 1 << 26
	// connBuf is the size a connection's buffers start at, and what a
	// kept connection holds while idle.
	connBuf = 4096
)

// ServeConn answers the commands arriving on one connection with exec
// until the peer closes it or a write fails.
func ServeConn(conn io.ReadWriter, exec func(string) (string, error)) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, connBuf), maxCommand)
	for sc.Scan() {
		reply, err := exec(sc.Text())
		// A reply is formatted whole and written once: no write buffer.
		if err != nil {
			// An error reply is one protocol line: a multi-line error (a
			// verifier evidence chain) is flattened. Clients that want
			// the full chain verify locally before installing.
			msg := strings.ReplaceAll(strings.TrimRight(err.Error(), "\n"), "\n", " | ")
			_, err = fmt.Fprintf(conn, "-%s\n", strings.ReplaceAll(msg, "\t", " "))
		} else {
			_, err = fmt.Fprintf(conn, "+%s\n.\n", strings.TrimRight(reply, "\n"))
		}
		if err != nil {
			return
		}
	}
}

// Serve accepts connections until the listener closes, answering each on
// its own goroutine; it then closes the ones still open — a client that
// kept one must not go on being answered by a closed endpoint — and
// returns when their goroutines have.
func Serve(l net.Listener, exec func(string) (string, error)) {
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, closeConns := context.WithCancel(context.Background())
	defer closeConns()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			defer stop()
			ServeConn(conn, exec)
		}()
	}
}

// ReplyError is the message of a "-error" reply. The peer answered: the
// connection that carried it is good for the next command.
type ReplyError string

func (e ReplyError) Error() string { return string(e) }

// NoReplyError is a transport error that struck before any byte of a
// reply arrived — what a kept connection to a peer since gone produces.
type NoReplyError struct{ Err error }

func (e *NoReplyError) Error() string { return e.Err.Error() }
func (e *NoReplyError) Unwrap() error { return e.Err }

// Client asks over one kept connection, one command at a time. After an
// error that is not a ReplyError the stream's framing is lost: Close it.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, connBuf)}
}

// Do sends one command and reads its reply, all within timeout.
func (c *Client) Do(cmd string, timeout time.Duration) (string, error) {
	_ = c.conn.SetDeadline(time.Now().Add(timeout)) // a conn without deadlines is still asked
	if _, err := c.conn.Write(append([]byte(cmd), '\n')); err != nil {
		return "", &NoReplyError{err}
	}
	return readReply(c.r)
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ReadReply reads the one reply a stream carries: the payload of a "+"
// reply, the message of a "-" reply as a ReplyError, io.ErrUnexpectedEOF
// if the stream ends before the reply does.
func ReadReply(r io.Reader) (string, error) {
	return readReply(bufio.NewReaderSize(r, connBuf))
}

// readReply parses one reply and consumes no byte past it.
func readReply(r *bufio.Reader) (string, error) {
	buf, err := appendLine(nil, r)
	switch {
	case err != nil && len(buf) == 0:
		return "", &NoReplyError{err}
	case err != nil:
		return "", err
	case bytes.HasPrefix(buf, []byte("-")):
		return "", ReplyError(buf[1:])
	case !bytes.HasPrefix(buf, []byte("+")):
		return "", fmt.Errorf("malformed reply line %q", buf)
	}
	for {
		end := len(buf)
		if buf, err = appendLine(append(buf, '\n'), r); err != nil {
			return "", err
		}
		if string(buf[end+1:]) == "." {
			return string(buf[1:end]), nil
		}
	}
}

// appendLine appends the next line to buf without its "\n" or "\r\n"; the
// end of the stream also ends a line that has begun. A line may be far
// longer than r's buffer, up to maxReplyLine.
func appendLine(buf []byte, r *bufio.Reader) ([]byte, error) {
	for start := len(buf); ; {
		chunk, err := r.ReadSlice('\n')
		buf = append(buf, chunk...)
		switch {
		case len(buf)-start > maxReplyLine:
			return buf, bufio.ErrTooLong
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && len(buf) == start:
			return buf, io.ErrUnexpectedEOF
		case err != nil && err != io.EOF:
			return buf, err
		}
		return bytes.TrimSuffix(bytes.TrimSuffix(buf, []byte("\n")), []byte("\r")), nil
	}
}

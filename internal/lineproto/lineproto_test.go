package lineproto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pipeClient serves exec on one end of a pipe and returns a Client on the
// other.
func pipeClient(t *testing.T, exec func(string) (string, error)) *Client {
	t.Helper()
	c1, c2 := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c2.Close()
		ServeConn(c2, exec)
	}()
	c := NewClient(c1)
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// TestServeConnCommandSizes: the per-connection scanner starts small and
// still grows to maxCommand — the largest line that fits (a "cpa install"
// carrying most of a MiB of base64) is answered, one past the bound ends
// the connection unanswered.
func TestServeConnCommandSizes(t *testing.T) {
	echoLen := func(line string) (string, error) { return strconv.Itoa(len(line)), nil }

	c := pipeClient(t, echoLen)
	for _, n := range []int{1, connBuf - 1, connBuf, connBuf + 1, maxCommand - 1} {
		if got, err := c.Do(strings.Repeat("A", n), 5*time.Second); err != nil || got != strconv.Itoa(n) {
			t.Fatalf("command of %d bytes: reply %q, %v", n, got, err)
		}
	}

	c = pipeClient(t, echoLen)
	_, err := c.Do(strings.Repeat("A", maxCommand+1), 5*time.Second)
	var noReply *NoReplyError
	if !errors.As(err, &noReply) {
		t.Fatalf("command of maxCommand+1 bytes: err = %v, want the connection ended unanswered", err)
	}
}

// TestServeClosesAcceptedConnections: closing the listener ends the
// connections Serve accepted, Serve returns once their goroutines have,
// and a client that kept one learns on its next command — before any
// reply byte, so it may ask elsewhere.
func TestServeClosesAcceptedConnections(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(l, func(line string) (string, error) { return "you said " + line, nil })
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	if got, err := c.Do("hello", 5*time.Second); err != nil || got != "you said hello" {
		t.Fatalf("reply %q, %v", got, err)
	}

	l.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	_, err = c.Do("hello again", 5*time.Second)
	var noReply *NoReplyError
	if !errors.As(err, &noReply) {
		t.Fatalf("command on a connection the server closed: err = %v, want a NoReplyError", err)
	}
}

// TestClientKeepsFraming: a kept connection carries reply after reply —
// an error reply leaves it usable, and a reply line longer than the
// reader's buffer does not disturb the one after it.
func TestClientKeepsFraming(t *testing.T) {
	long := strings.Repeat("x", 3*connBuf+17)
	c := pipeClient(t, func(line string) (string, error) {
		switch line {
		case "long":
			return long, nil
		case "lines":
			return "a\n\nb\n", nil
		case "bad":
			return "", errors.New("no such\tthing\nat all")
		}
		return line, nil
	})
	for _, step := range []struct{ cmd, want, wantErr string }{
		{"long", long, ""},
		{"echo", "echo", ""},
		{"bad", "", "no such thing | at all"},
		{"lines", "a\n\nb", ""},
		{"bad", "", "no such thing | at all"},
		{"long", long, ""},
	} {
		got, err := c.Do(step.cmd, 5*time.Second)
		if got != step.want {
			t.Fatalf("%q: payload %.40q, want %.40q", step.cmd, got, step.want)
		}
		var replyErr ReplyError
		if step.wantErr == "" && err != nil || step.wantErr != "" && (!errors.As(err, &replyErr) || string(replyErr) != step.wantErr) {
			t.Fatalf("%q: err = %v, want ReplyError %q", step.cmd, err, step.wantErr)
		}
	}
}

// TestRepliesBackToBack: two replies already written on one stream both
// parse — a reader that read past the first would lose the second.
func TestRepliesBackToBack(t *testing.T) {
	long := strings.Repeat("y", 2*connBuf)
	r := bufio.NewReaderSize(strings.NewReader("+one\ntwo\n.\n-nope\n+"+long+"\r\n.\n+last\n."), connBuf)
	for i, want := range []struct{ payload, err string }{
		{"one\ntwo", ""}, {"", "nope"}, {long, ""}, {"last", ""},
	} {
		got, err := readReply(r)
		if got != want.payload || (err == nil) != (want.err == "") || err != nil && err.Error() != want.err {
			t.Fatalf("reply %d: %.40q, %v; want %.40q, %q", i, got, err, want.payload, want.err)
		}
	}
	_, err := readReply(r)
	var noReply *NoReplyError
	if !errors.As(err, &noReply) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("exhausted stream: err = %v, want a NoReplyError over io.ErrUnexpectedEOF", err)
	}
}

// TestBrokenReplyIsNotNoReply: a stream that ends inside a reply is a
// transport error of the other kind — bytes arrived, so the command was
// taken and asking again could answer twice.
func TestBrokenReplyIsNotNoReply(t *testing.T) {
	for _, stream := range []string{"+half a reply\n", "+no newline", "+a\nb\n"} {
		_, err := ReadReply(strings.NewReader(stream))
		var noReply *NoReplyError
		if !errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &noReply) {
			t.Errorf("%q: err = %v (%T), want a bare io.ErrUnexpectedEOF", stream, err, err)
		}
	}
}

// Command sysprofctl drives a sysprofd controller remotely: it sends one
// management command and prints the reply.
//
// Usage:
//
//	sysprofctl [-addr host:port] <command...>
//
// The commands are the controller's, and it lists them itself:
//
//	sysprofctl help
//
// Two are translated on the way. They take the analyzer's source as a
// file, verified locally before anything is sent — the full evidence
// chain prints on rejection; the node re-verifies on arrival regardless:
//
//	cpa install <node> <file.ec> [name] [groups]   default name: file base, groups: all
//	cpa verify <file.ec>                           verify only, print verdict
//
// Example:
//
//	sysprofctl granularity webserver interactions class
//	sysprofctl cpa install webserver latency-watch.ec latency-watch net
//
// Any server of the same line protocol answers it too; a federation of
// gpad shards is administered through its merge frontend's query port:
//
//	sysprofctl -addr 127.0.0.1:9182 retention 100000   # gpad -frontend … -query 127.0.0.1:9182
//	sysprofctl -addr 127.0.0.1:9182 federation
package main

import (
	"encoding/base64"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"

	"sysprof/internal/core"
	"sysprof/internal/ecode"
	"sysprof/internal/lineproto"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8072", "sysprofd controller address")
	flag.Parse()
	if err := run(*addr, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "sysprofctl:", err)
		os.Exit(1)
	}
}

func run(addr string, args []string) error {
	if len(args) == 0 {
		return errors.New("no command given (try: sysprofctl help)")
	}
	wire := strings.Join(args, " ")
	if len(args) >= 2 && args[0] == "cpa" {
		switch args[1] {
		case "verify":
			return cpaVerify(args[2:])
		case "install":
			var err error
			if wire, err = cpaInstall(args[2:]); err != nil {
				return err
			}
		}
	}
	return send(addr, wire)
}

// cpaVerify verifies an analyzer file and prints the verdict; nothing is
// sent.
func cpaVerify(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: cpa verify <file.ec>")
	}
	_, verdict, err := loadAndVerify(args[0])
	if err != nil {
		return err
	}
	if !verdict.OK {
		return fmt.Errorf("rejected:\n%s", verdict.Render())
	}
	fmt.Printf("ok: worst-case cost %d steps/event\n", verdict.Cost)
	return nil
}

// cpaInstall turns the file-based install into the wire command, which
// carries the source as base64, verifying the source locally first.
func cpaInstall(args []string) (string, error) {
	if len(args) < 2 || len(args) > 4 {
		return "", errors.New("usage: cpa install <node> <file.ec> [name] [groups]")
	}
	node, file := args[0], args[1]
	name := strings.TrimSuffix(filepath.Base(file), ".ec")
	if len(args) >= 3 {
		name = args[2]
	}
	groups := "all"
	if len(args) == 4 {
		groups = args[3]
	}
	src, verdict, err := loadAndVerify(file)
	if err != nil {
		return "", err
	}
	if !verdict.OK {
		return "", fmt.Errorf("%s rejected by the verifier (not sent):\n%s", file, verdict.Render())
	}
	fmt.Printf("verified: worst-case cost %d steps/event\n", verdict.Cost)
	b64 := base64.StdEncoding.EncodeToString(src)
	return fmt.Sprintf("cpa install %s %s %s %s", node, name, groups, b64), nil
}

// loadAndVerify reads an E-Code file and verifies it under the CPA
// environment, using the real path as the diagnostic filename so the
// evidence chain is clickable.
func loadAndVerify(path string) ([]byte, *ecode.Verdict, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	verdict, err := core.VerifyCPA(path, string(src))
	if err != nil {
		return nil, nil, err
	}
	return src, verdict, nil
}

func send(addr, cmd string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()

	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	reply, err := lineproto.ReadReply(conn)
	if err != nil {
		return err
	}
	fmt.Println(reply)
	return nil
}

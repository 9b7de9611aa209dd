// Command sysprofctl drives a sysprofd controller remotely: it sends one
// management command and prints the reply.
//
// Usage:
//
//	sysprofctl [-addr host:port] <command...>
//
// Commands (see internal/controller):
//
//	status
//	granularity <node> <lpa> interaction|class
//	mask <node> <lpa> <groups>            groups: all,sched,syscall,net,fs,default,none
//	window <node> <lpa> <size>
//	bufcap <node> <lpa> <capacity>
//	ntpinterval <node> [<dur>|now]        clock re-measurement cadence / force one
//
// Custom-analyzer commands (source read from a file, verified locally
// before it is sent — the full evidence chain prints on rejection; the
// node re-verifies on arrival regardless):
//
//	cpa install <node> <file.ec> [name] [groups]   default name: file base, groups: all
//	cpa verify <file.ec>                           verify only, print verdict
//	cpa remove <node> <name>
//	cpa list <node>
//
// Federation commands (when a federated gpad tier is attached):
//
//	federation status                     shard liveness + endpoints (JSON)
//	federation endpoints                  current shard endpoint list
//	federation set-endpoints <a,b,...>    replace the shard endpoint list
//	federation retention <n>              per-shard correlated-history cap
//	federation clockbound <node> <dur>    broadcast a node clock-error bound
//
// Example:
//
//	sysprofctl granularity webserver interactions class
//	sysprofctl federation retention 100000
//	sysprofctl cpa install webserver latency-watch.ec latency-watch net
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
		return errors.New("no command given (try: sysprofctl status)")
	}
	if args[0] == "cpa" {
		wire, err := cpaCommand(args)
		if err != nil || wire == "" {
			return err
		}
		return send(addr, wire)
	}
	return send(addr, strings.Join(args, " "))
}

// cpaCommand translates the user-facing cpa subcommands into wire
// commands, verifying file-based sources locally first. An empty return
// with nil error means the command completed without needing the wire
// (cpa verify).
func cpaCommand(args []string) (string, error) {
	if len(args) < 2 {
		return "", errors.New("usage: cpa install|verify|remove|list ...")
	}
	switch args[1] {
	case "verify":
		if len(args) != 3 {
			return "", errors.New("usage: cpa verify <file.ec>")
		}
		_, verdict, err := loadAndVerify(args[2])
		if err != nil {
			return "", err
		}
		if !verdict.OK {
			return "", fmt.Errorf("rejected:\n%s", verdict.Render())
		}
		fmt.Printf("ok: worst-case cost %d steps/event\n", verdict.Cost)
		return "", nil
	case "install":
		if len(args) < 4 || len(args) > 6 {
			return "", errors.New("usage: cpa install <node> <file.ec> [name] [groups]")
		}
		node, file := args[2], args[3]
		name := strings.TrimSuffix(filepath.Base(file), ".ec")
		if len(args) >= 5 {
			name = args[4]
		}
		groups := "all"
		if len(args) == 6 {
			groups = args[5]
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
	case "remove":
		if len(args) != 4 {
			return "", errors.New("usage: cpa remove <node> <name>")
		}
		return fmt.Sprintf("cpa remove %s %s", args[2], args[3]), nil
	case "list":
		if len(args) != 3 {
			return "", errors.New("usage: cpa list <node>")
		}
		return "cpa list " + args[2], nil
	}
	return "", fmt.Errorf("unknown cpa command %q", args[1])
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

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckAgainstSnapshot: -check passes against the committed snapshot
// and fails against a copy of it with one byte changed.
func TestCheckAgainstSnapshot(t *testing.T) {
	const snapshot = "BENCH_scenario_happy-small.json"
	committed, err := os.ReadFile(filepath.Join("..", "..", snapshot))
	if err != nil {
		t.Fatal(err)
	}
	check := func(content []byte) error {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshot), content, 0o644); err != nil {
			t.Fatal(err)
		}
		return run([]string{"-name", "happy-small", "-check", "-out", dir}, io.Discard)
	}
	if err := check(committed); err != nil {
		t.Fatalf("-check against the committed snapshot: %v", err)
	}
	changed := []byte(strings.Replace(string(committed), `"happy-small"`, `"happy-smalL"`, 1))
	if string(changed) == string(committed) {
		t.Fatal("fixture: no byte changed")
	}
	if err := check(changed); err == nil {
		t.Fatal("-check passed against a snapshot with one byte changed")
	}
}

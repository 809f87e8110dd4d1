package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// EXPERIMENTS.md is a golden: TestExperimentsGolden regenerates it the
// way its header says — `kmbench -md`, full mode, seed 1 — and compares
// the result with the checked-in file byte for byte, so a change that
// moves any paper number shows the move in its diff. After an intended
// change, `go test ./cmd/kmbench -update` rewrites it.

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from this run")

var experimentsMD = filepath.Join("..", "..", "EXPERIMENTS.md")

func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at full size")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-md"}, &stdout, &stderr); code != 0 {
		t.Fatalf("kmbench -md exited %d: %s", code, stderr.String())
	}
	if *update {
		if err := os.WriteFile(experimentsMD, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("kmbench -md differs from EXPERIMENTS.md at line %d (run with -update if the change is intended):\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestRefusals pins the exit statuses and diagnostics of the ways a
// kmbench invocation can fail before any table is printed.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-quick", "-run", "E99"}, 1, `no experiments matched -run="E99"; try -list`},
		{[]string{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.out")}, 1, "create cpu profile:"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("kmbench %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				strings.Join(tc.args, " "), code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

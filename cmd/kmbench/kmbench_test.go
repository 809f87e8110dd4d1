package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
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
	checkStakes(t, stdout.String())
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

// checkStakes asserts, on the tables the golden was built from, the
// shapes the paper's upper bounds predict where the two-hop router's
// max link decides them. The golden alone shows that a number moved;
// these fail when it moved the wrong way.
func checkStakes(t *testing.T, md string) {
	t.Helper()
	var gnp [][]string
	for _, row := range tableRows(t, md, "E1") {
		if row[0] == "gnp" {
			gnp = append(gnp, row)
		}
	}
	if len(gnp) < 2 {
		t.Fatalf("E1 has %d gnp rows, want one per k", len(gnp))
	}
	// Theorem 4: Algorithm 1 runs in Õ(n/k²) rounds, the Klauck et al.
	// baseline in Õ(n/k), so Algorithm 1 is at or below it at every k.
	for _, row := range gnp {
		if alg, base := cell(t, row[3]), cell(t, row[4]); alg > base {
			t.Errorf("E1 gnp k=%s: Algorithm 1 took %s rounds, above the baseline's %s", row[2], row[3], row[4])
		}
	}
	// Theorem 4's proof: a machine's light messages go one per
	// destination vertex, homed at random, so each link carries a
	// binomial share of them, and comm (rounds over one per superstep)
	// stays within Lemma 13's bound on every row. A comm that read 0
	// would hold it for nothing, so the gnp rows must spend some.
	for _, row := range tableRows(t, md, "E1") {
		if comm, bound := cell(t, row[7]), cell(t, row[8]); comm > bound {
			t.Errorf("E1 %s k=%s: comm %s rounds, above Lemma 13's %s", row[0], row[2], row[7], row[8])
		}
	}
	if cell(t, gnp[0][7]) == 0 {
		t.Errorf("E1 gnp k=%s: comm reads 0, so Lemma 13's bound checks nothing", gnp[0][2])
	}
	// Lemma 13: a concentrated flow routed in two hops takes about
	// 2(x/k)/B rounds, its last column; the max link stays within 1.2×.
	for _, row := range tableRows(t, md, "E7") {
		if row[0] == "1 src -> 1 dst, two-hop" {
			if rounds, bound := cell(t, row[3]), cell(t, row[4]); rounds > 1.2*bound {
				t.Errorf("E7 concentrated two-hop flow took %s rounds, above 1.2 × %s", row[3], row[4])
			}
			return
		}
	}
	t.Error("E7 has no concentrated two-hop row")
}

// tableRows returns the body rows of the Markdown table in experiment
// id's section, each split into its cells.
func tableRows(t *testing.T, md, id string) [][]string {
	t.Helper()
	_, section, ok := strings.Cut(md, "\n## "+id+" — ")
	if !ok {
		t.Fatalf("no section %s", id)
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| ---") {
			continue
		}
		rows = append(rows, strings.Split(strings.Trim(line, "| "), " | "))
	}
	if len(rows) < 2 {
		t.Fatalf("section %s has no table body", id)
	}
	return rows[1:] // rows[0] is the header
}

func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("table cell %q is not a number", s)
	}
	return v
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

package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/partition"
)

// TestSplitEdgeList: split a flat edge list into k per-machine files,
// then ingest each machine's own file and require the shard to be
// bit-identical to the shard built from the full file. That equality is
// what lets a node process read O((n+m)/k) bytes instead of the whole
// dataset.
func TestSplitEdgeList(t *testing.T) {
	const n, k = 250, 8
	g := gen.Gnp(n, 0.04, 13)
	dir := t.TempDir()
	full := filepath.Join(dir, "edges.txt")
	f, err := os.Create(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec := partition.Spec{N: n, K: k, Seed: 14}
	outDir := filepath.Join(dir, "split")
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	paths, err := SplitEdgeList(full, outDir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != k {
		t.Fatalf("SplitEdgeList returned %d paths, want %d", len(paths), k)
	}

	for m := 0; m < k; m++ {
		if want := fmt.Sprintf("edges.m%d.txt", m); filepath.Base(paths[m]) != want {
			t.Fatalf("machine %d file named %q, want %q", m, filepath.Base(paths[m]), want)
		}
		fromSplit, err := gen.EdgeListInput(paths[m], spec, false).MachineView(core.MachineID(m))
		if err != nil {
			t.Fatalf("ingest split file for machine %d: %v", m, err)
		}
		fromFull, err := gen.EdgeListInput(full, spec, false).MachineView(core.MachineID(m))
		if err != nil {
			t.Fatalf("ingest full file for machine %d: %v", m, err)
		}
		if !slices.Equal(fromSplit.Locals(), fromFull.Locals()) {
			t.Fatalf("machine %d: Locals differ between split and full ingest", m)
		}
		for _, u := range fromFull.Locals() {
			if !slices.Equal(fromSplit.OutAdj(u), fromFull.OutAdj(u)) {
				t.Fatalf("machine %d: OutAdj(%d) from split %v, from full %v",
					m, u, fromSplit.OutAdj(u), fromFull.OutAdj(u))
			}
		}
	}

	// The split files together should be smaller than k copies of the
	// full file: each edge appears at most twice across all of them.
	var splitBytes int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		splitBytes += st.Size()
	}
	fullSt, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	if splitBytes > 2*fullSt.Size()+int64(k) {
		t.Fatalf("split files total %d bytes, more than twice the %d-byte input", splitBytes, fullSt.Size())
	}
}

func TestSplitEdgeListBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("3 999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := SplitEdgeList(bad, dir, partition.Spec{N: 10, K: 2, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("SplitEdgeList on out-of-range edge: err = %v, want line-numbered parse error", err)
	}
}

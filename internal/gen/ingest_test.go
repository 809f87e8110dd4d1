package gen

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// readEdgeListGraph fully materialises the edge list at path — the
// reference against which EdgeListInput's sharded CSRs are compared
// here and in shard_test.go. No non-test code reads a file this way.
func readEdgeListGraph(path string, n int, directed bool) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := graph.NewBuilder(n, directed)
	if err := ScanEdgeList(f, n, func(u, v int32) { b.AddEdge(int(u), int(v)) }); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// TestIngestRoundTrip: graph → edge-list file → full read AND sharded
// ingest → identical adjacency. The file produced by WriteEdgeList must
// reproduce the graph bit for bit on both input paths.
func TestIngestRoundTrip(t *testing.T) {
	const n, k = 200, 8
	g := Gnp(n, 0.05, 21)
	path := filepath.Join(t.TempDir(), "edges.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := readEdgeListGraph(path, n, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round-trip graph n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for u := 0; u < n; u++ {
		if !slices.Equal(back.Adj(u), g.Adj(u)) {
			t.Fatalf("round-trip Adj(%d) = %v, want %v", u, back.Adj(u), g.Adj(u))
		}
	}

	ps := partition.Spec{N: n, K: k, Seed: 22}
	shards, err := EdgeListInput(path, ps, false).MachineViews(partition.AllMachines(k)) // one read of the file for all k
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for m, lv := range shards {
		for _, u := range lv.Locals() {
			if !slices.Equal(lv.OutAdj(u), g.Adj(int(u))) {
				t.Fatalf("machine %d ingested OutAdj(%d) = %v, want %v", m, u, lv.OutAdj(u), g.Adj(int(u)))
			}
		}
		covered += len(lv.Locals())
	}
	if covered != n {
		t.Fatalf("ingested shards cover %d vertices, want %d", covered, n)
	}
}

func TestIngestDirectedRoundTrip(t *testing.T) {
	const n, k = 120, 4
	g := DirectedGnp(n, 0.05, 31)
	path := filepath.Join(t.TempDir(), "arcs.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ps := partition.Spec{N: n, K: k, Seed: 32}
	for m := 0; m < k; m++ {
		lv, err := EdgeListInput(path, ps, true).MachineView(core.MachineID(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range lv.Locals() {
			if !slices.Equal(lv.OutAdj(u), g.Adj(int(u))) {
				t.Fatalf("machine %d OutAdj(%d) = %v, want %v", m, u, lv.OutAdj(u), g.Adj(int(u)))
			}
			if !slices.Equal(lv.InAdj(u), g.InAdj(int(u))) {
				t.Fatalf("machine %d InAdj(%d) = %v, want %v", m, u, lv.InAdj(u), g.InAdj(int(u)))
			}
		}
	}
}

func TestScanEdgeListFormat(t *testing.T) {
	input := "# comment line\n\n 3 5 \n7 2 # trailing comment\n"
	var got [][2]int32
	if err := ScanEdgeList(strings.NewReader(input), 10, func(u, v int32) {
		got = append(got, [2]int32{u, v})
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]int32{{3, 5}, {7, 2}}
	if !slices.Equal(flattenPairs(got), flattenPairs(want)) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

func TestScanEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"out-of-range": "1 99\n",
		"one-field":    "4\n",
		"garbage":      "4 5 junk\n",
		"negative":     "-1 3\n",
	}
	for name, input := range cases {
		err := ScanEdgeList(strings.NewReader(input), 10, func(u, v int32) {})
		if err == nil {
			t.Errorf("%s: %q parsed without error", name, input)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q does not name the line", name, err)
		}
	}
}

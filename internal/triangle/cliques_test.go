package triangle

import (
	"slices"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

func runC4(t *testing.T, g *graph.Graph, k int, seed uint64) *Clique4Result {
	t.Helper()
	p := partition.NewRVP(g, k, seed)
	res, err := RunCliques4(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: seed + 1}, AlgorithmOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkCliques4(t *testing.T, g *graph.Graph, res *Clique4Result, label string) {
	t.Helper()
	wantCount, wantSum := graph.Clique4Checksum(g.Cliques4())
	if res.Count != wantCount {
		t.Errorf("%s: %d 4-cliques, want %d", label, res.Count, wantCount)
	}
	if res.Checksum != wantSum {
		t.Errorf("%s: checksum mismatch", label)
	}
}

func TestColors4(t *testing.T) {
	cases := map[int]int{2: 1, 15: 1, 16: 2, 80: 2, 81: 3, 256: 4}
	for k, want := range cases {
		if got := Colors4(k); got != want {
			t.Errorf("Colors4(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestQuadRoundTrip(t *testing.T) {
	const c = 3
	seen := map[[4]int32]bool{}
	for m := 0; m < c*c*c*c; m++ {
		q, ok := quadOf(core.MachineID(m), c)
		if !ok {
			t.Fatalf("machine %d should hold a quadruple", m)
		}
		if seen[q] {
			t.Fatalf("duplicate quadruple %v", q)
		}
		seen[q] = true
	}
	if _, ok := quadOf(core.MachineID(c*c*c*c), c); ok {
		t.Error("out-of-range machine claims a quadruple")
	}
}

func TestPairTargets4Coverage(t *testing.T) {
	// Entry (a, b) holds exactly the quadruples with color a at some
	// position before color b, ascending and without duplicates. That is
	// 6c² − 8c + 3 for every ordered pair, a = b included (the quadruples
	// holding a at least twice: c⁴ − (c−1)⁴ − 4(c−1)³). Θ(c²) = Θ(k^{1/2})
	// copies per edge is the K4 analogue of Theorem 5's Θ(m·k^{1/3}) volume.
	for _, c := range []int{2, 3} {
		targets := pairTargets(c, 4)
		for a := 0; a < c; a++ {
			for b := 0; b < c; b++ {
				var want []core.MachineID
				for m := 0; m < c*c*c*c; m++ {
					q, _ := quadOf(core.MachineID(m), c)
					before := false
					for i := range q {
						for j := i + 1; j < len(q); j++ {
							before = before || int(q[i]) == a && int(q[j]) == b
						}
					}
					if before {
						want = append(want, core.MachineID(m))
					}
				}
				if got := targets[a*c+b]; !slices.Equal(got, want) || len(got) != 6*c*c-8*c+3 {
					t.Fatalf("c=%d pair (%d,%d): targets %v, want %v (%d = 6c² − 8c + 3)", c, a, b, got, want, 6*c*c-8*c+3)
				}
			}
		}
	}
}

func TestCliques4Gnp(t *testing.T) {
	for _, k := range []int{16, 81} {
		g := gen.Gnp(80, 0.4, uint64(k))
		res := runC4(t, g, k, uint64(k)+5)
		checkCliques4(t, g, res, "gnp")
	}
}

func TestCliques4CompleteGraph(t *testing.T) {
	g := gen.Complete(20)
	res := runC4(t, g, 16, 7)
	if want := int64(20 * 19 * 18 * 17 / 24); res.Count != want {
		t.Errorf("K20: %d 4-cliques, want %d", res.Count, want)
	}
}

func TestCliques4NoneInBipartite(t *testing.T) {
	g := gen.CompleteBipartite(15, 15)
	res := runC4(t, g, 16, 9)
	if res.Count != 0 {
		t.Errorf("bipartite graph yielded %d 4-cliques", res.Count)
	}
}

func TestCliques4NoDuplicates(t *testing.T) {
	g := gen.Gnp(60, 0.5, 11)
	p := partition.NewRVP(g, 16, 13)
	opts := AlgorithmOptions()
	opts.Collect = true
	res, err := RunCliques4(p, core.Config{K: 16, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 17}, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.Clique4]bool{}
	for _, c := range res.Cliques {
		if seen[c] {
			t.Fatalf("clique %+v output twice", c)
		}
		seen[c] = true
	}
	checkCliques4(t, g, res, "collect")
}

func TestCliques4SmallK(t *testing.T) {
	// k < 16 gives a single color class: one machine enumerates, the
	// rest proxy. Still exact.
	g := gen.Gnp(50, 0.4, 19)
	res := runC4(t, g, 4, 23)
	checkCliques4(t, g, res, "k=4")
}

func TestCliques4Deterministic(t *testing.T) {
	g := gen.Gnp(60, 0.4, 29)
	a := runC4(t, g, 16, 31)
	b := runC4(t, g, 16, 31)
	if a.Count != b.Count || a.Checksum != b.Checksum || a.Stats.Rounds != b.Stats.Rounds {
		t.Error("identical runs disagree")
	}
}

func TestCliques4RejectsDirected(t *testing.T) {
	g := gen.DirectedCycle(10)
	p := partition.NewRVP(g, 4, 1)
	if _, err := RunCliques4(p, core.Config{K: 4, Bandwidth: 4, Seed: 1}, AlgorithmOptions()); err == nil {
		t.Error("directed graph accepted")
	}
}

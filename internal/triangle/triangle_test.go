package triangle

import (
	"slices"
	"sort"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

func runTri(t *testing.T, g *graph.Graph, k int, opts Options, seed uint64) *Result {
	t.Helper()
	p := partition.NewRVP(g, k, seed)
	res, err := Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: seed + 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkAgainstGroundTruth(t *testing.T, g *graph.Graph, res *Result, label string) {
	t.Helper()
	wantCount, wantSum := graph.TriangleChecksum(g.Triangles())
	if res.Count != wantCount {
		t.Errorf("%s: %d triangles, want %d", label, res.Count, wantCount)
	}
	if res.Checksum != wantSum {
		t.Errorf("%s: checksum mismatch (count %d): outputs differ from ground truth", label, res.Count)
	}
}

func TestColors(t *testing.T) {
	cases := map[int]int{2: 1, 7: 1, 8: 2, 26: 2, 27: 3, 63: 3, 64: 4, 1000: 10}
	for k, want := range cases {
		if got := Colors(k); got != want {
			t.Errorf("Colors(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestTripleRoundTrip(t *testing.T) {
	for _, c := range []int{1, 2, 3, 4} {
		for m := 0; m < c*c*c; m++ {
			c1, c2, c3, ok := tripleOf(core.MachineID(m), c)
			if !ok {
				t.Fatalf("c=%d machine %d should be a triple machine", c, m)
			}
			if got := tripleMachine(c1, c2, c3, c); int(got) != m {
				t.Fatalf("triple round trip failed: %d -> (%d,%d,%d) -> %d", m, c1, c2, c3, got)
			}
		}
		if _, _, _, ok := tripleOf(core.MachineID(c*c*c), c); ok {
			t.Errorf("c=%d: machine %d wrongly claims a triple", c, c*c*c)
		}
	}
}

func TestPairTargetsCoverage(t *testing.T) {
	// Entry (a, b) holds exactly the triples with color a at some
	// position before color b, ascending and without duplicates: the
	// machines that enumerate a triangle whose lower endpoint is colored
	// a and higher one b. That is 3c − 2 triples for every ordered pair,
	// a = b included, so m edges cost Θ(m·c) = Θ(m·k^{1/3}) words —
	// Theorem 5's volume, which its m/k^{5/3} rounds spread over k² links.
	for _, c := range []int{2, 3, 4} {
		targets := pairTargets(c, 3)
		for a := 0; a < c; a++ {
			for b := 0; b < c; b++ {
				var want []core.MachineID
				for m := 0; m < c*c*c; m++ {
					c1, c2, c3, _ := tripleOf(core.MachineID(m), c)
					if c1 == a && (c2 == b || c3 == b) || c2 == a && c3 == b {
						want = append(want, core.MachineID(m))
					}
				}
				if got := targets[a*c+b]; !slices.Equal(got, want) || len(got) != 3*c-2 {
					t.Fatalf("c=%d pair (%d,%d): targets %v, want %v (%d = 3c − 2)", c, a, b, got, want, 3*c-2)
				}
			}
		}
	}
}

func TestEnumeratesGnpExactly(t *testing.T) {
	for _, k := range []int{8, 27, 64} {
		g := gen.Gnp(150, 0.2, uint64(k))
		res := runTri(t, g, k, AlgorithmOptions(), uint64(k)+100)
		checkAgainstGroundTruth(t, g, res, "gnp")
	}
}

func TestEnumeratesDenseGraphExactly(t *testing.T) {
	// G(n, 1/2) is the Theorem 3 lower-bound family.
	g := gen.Gnp(120, 0.5, 3)
	res := runTri(t, g, 27, AlgorithmOptions(), 5)
	checkAgainstGroundTruth(t, g, res, "dense")
}

func TestEnumeratesCompleteGraph(t *testing.T) {
	g := gen.Complete(40)
	res := runTri(t, g, 8, AlgorithmOptions(), 7)
	if want := int64(40 * 39 * 38 / 6); res.Count != want {
		t.Errorf("K40: %d triangles, want %d", res.Count, want)
	}
}

func TestEnumeratesPlantedExactlyWithCollect(t *testing.T) {
	g := gen.PlantedTriangles(60, 120, 9)
	opts := AlgorithmOptions()
	opts.Collect = true
	res := runTri(t, g, 27, opts, 11)
	want := g.Triangles()
	got := append([]graph.Triangle(nil), res.Triangles...)
	sort.Slice(got, func(i, j int) bool {
		a, b := got[i], got[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
	if len(got) != len(want) {
		t.Fatalf("got %d triangles, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("triangle %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestNoDuplicatesAcrossMachines(t *testing.T) {
	// Count equality with ground truth plus checksum equality already
	// rules out duplicates; this test makes the property explicit by
	// collecting and checking set-ness.
	g := gen.Gnp(100, 0.3, 13)
	opts := AlgorithmOptions()
	opts.Collect = true
	res := runTri(t, g, 27, opts, 17)
	seen := map[graph.Triangle]bool{}
	for _, tr := range res.Triangles {
		if seen[tr] {
			t.Fatalf("triangle %+v output by two machines", tr)
		}
		seen[tr] = true
	}
}

func TestTriangleFreeGraph(t *testing.T) {
	g := gen.CompleteBipartite(20, 20)
	res := runTri(t, g, 8, AlgorithmOptions(), 19)
	if res.Count != 0 {
		t.Errorf("bipartite graph yielded %d triangles", res.Count)
	}
}

func TestWithoutProxiesStillExact(t *testing.T) {
	g := gen.Gnp(120, 0.3, 21)
	opts := AlgorithmOptions()
	opts.Proxies = false
	res := runTri(t, g, 27, opts, 23)
	checkAgainstGroundTruth(t, g, res, "no-proxies")
}

func TestWithoutHeavyDesignationStillExact(t *testing.T) {
	g := gen.Star(200) // maximally heavy hub
	opts := AlgorithmOptions()
	opts.HeavyDesignation = false
	res := runTri(t, g, 8, opts, 29)
	if res.Count != 0 {
		t.Errorf("star yielded %d triangles", res.Count)
	}
	g2 := gen.Gnp(100, 0.3, 31)
	res2 := runTri(t, g2, 8, opts, 37)
	checkAgainstGroundTruth(t, g2, res2, "no-heavy")
}

func TestBaselineExact(t *testing.T) {
	g := gen.Gnp(80, 0.3, 41)
	p := partition.NewRVP(g, 8, 43)
	res, err := RunBaseline(p, core.Config{K: 8, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 47}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstGroundTruth(t, g, res, "baseline")
}

func TestAlgorithmBeatsBaseline(t *testing.T) {
	// Theorem 5 vs the Õ(m·n^{1/3}/k²) baseline: the ratio is
	// Θ((n/k)^{1/3}), clearly visible on a dense graph.
	g := gen.Gnp(300, 0.5, 53)
	const k = 27
	p := partition.NewRVP(g, k, 59)
	cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 61}
	alg, err := Run(p, cfg, AlgorithmOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunBaseline(p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if alg.Count != base.Count {
		t.Fatalf("algorithm and baseline disagree on count: %d vs %d", alg.Count, base.Count)
	}
	if base.Stats.Rounds < alg.Stats.Rounds*3/2 {
		t.Errorf("baseline rounds %d not ≫ algorithm rounds %d", base.Stats.Rounds, alg.Stats.Rounds)
	}
}

func TestRoundsScaleWithK(t *testing.T) {
	// Theorem 5: Õ(m/k^{5/3}). k: 8 -> 64 is an 8x machine increase, so
	// rounds should drop by ~8^{5/3} = 32x; we assert a conservative 6x.
	g := gen.Gnp(300, 0.5, 67)
	r8 := runTri(t, g, 8, AlgorithmOptions(), 71)
	r64 := runTri(t, g, 64, AlgorithmOptions(), 71)
	if r8.Count != r64.Count {
		t.Fatalf("count depends on k: %d vs %d", r8.Count, r64.Count)
	}
	ratio := float64(r8.Stats.Rounds) / float64(r64.Stats.Rounds)
	if ratio < 6 {
		t.Errorf("k 8->64 speedup %.1fx (%d -> %d rounds); want > 6x",
			ratio, r8.Stats.Rounds, r64.Stats.Rounds)
	}
}

func TestCongestedCliqueMode(t *testing.T) {
	// Corollary 1 upper bound side: k = n, one vertex per machine.
	g := gen.Gnp(64, 0.5, 73)
	p := partition.NewIdentity(g)
	res, err := Run(p, core.Config{K: g.N(), Bandwidth: 1, Seed: 79}, AlgorithmOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstGroundTruth(t, g, res, "clique")
}

func TestSomeMachineOutputsManyTriangles(t *testing.T) {
	// Lemma 9(A): at least one machine outputs >= t/k triangles.
	g := gen.Gnp(150, 0.5, 83)
	const k = 27
	res := runTri(t, g, k, AlgorithmOptions(), 89)
	var max int64
	for _, c := range res.PerMachine {
		if c > max {
			max = c
		}
	}
	if need := res.Count / int64(k); max < need {
		t.Errorf("max per-machine output %d below t/k = %d", max, need)
	}
}

func TestTriadsExact(t *testing.T) {
	g := gen.Gnp(80, 0.15, 97)
	opts := AlgorithmOptions()
	opts.Triads = true
	res := runTri(t, g, 27, opts, 101)
	var want []graph.Triad
	g.EnumerateTriads(func(tr graph.Triad) bool { want = append(want, tr); return true })
	wantCount, wantSum := graph.TriadChecksum(want)
	if res.Count != wantCount {
		t.Errorf("triads: %d, want %d", res.Count, wantCount)
	}
	if res.Checksum != wantSum {
		t.Error("triad checksum mismatch")
	}
}

func TestTriadsOnStar(t *testing.T) {
	// K_{1,d}: exactly C(d,2) triads, all centred at the hub.
	const d = 40
	g := gen.Star(d + 1)
	opts := AlgorithmOptions()
	opts.Triads = true
	opts.Collect = true
	res := runTri(t, g, 8, opts, 103)
	if want := int64(d * (d - 1) / 2); res.Count != want {
		t.Errorf("star triads = %d, want %d", res.Count, want)
	}
	for _, tr := range res.Triads {
		if tr.Center != 0 {
			t.Fatalf("triad %+v not centred at hub", tr)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := gen.Gnp(100, 0.3, 107)
	a := runTri(t, g, 27, AlgorithmOptions(), 109)
	b := runTri(t, g, 27, AlgorithmOptions(), 109)
	if a.Count != b.Count || a.Checksum != b.Checksum || a.Stats.Rounds != b.Stats.Rounds {
		t.Error("identical runs disagree")
	}
}

func TestRejectsDirectedGraph(t *testing.T) {
	g := gen.DirectedCycle(10)
	p := partition.NewRVP(g, 4, 1)
	if _, err := Run(p, core.Config{K: 4, Bandwidth: 4, Seed: 1}, AlgorithmOptions()); err == nil {
		t.Error("directed graph accepted")
	}
	if _, err := RunBaseline(p, core.Config{K: 4, Bandwidth: 4, Seed: 1}, Options{}); err == nil {
		t.Error("baseline accepted directed graph")
	}
}

func TestRejectsMismatchedK(t *testing.T) {
	g := gen.Gnp(30, 0.2, 1)
	p := partition.NewRVP(g, 4, 1)
	if _, err := Run(p, core.Config{K: 8, Bandwidth: 4, Seed: 1}, AlgorithmOptions()); err == nil {
		t.Error("mismatched k accepted")
	}
}

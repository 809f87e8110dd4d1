package pagerank

import (
	"math"
	"slices"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

func run(t *testing.T, g *graph.Graph, k int, opts Options, seed uint64) *Result {
	t.Helper()
	p := partition.NewRVP(g, k, seed)
	res, err := Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: seed + 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// commRounds isolates the communication term of a run: total rounds
// minus the model's floor of one round per superstep. The paper's Õ
// hides an additive polylog term (footnote 4) which is exactly this
// floor — one superstep per iteration, Θ(log n / eps) iterations — so
// scaling claims are about the remainder.
func commRounds(res *Result) int64 {
	c := res.Stats.Rounds - int64(res.Stats.Supersteps)
	if c < 0 {
		c = 0
	}
	return c
}

func TestEstimatesSumToOneOnCycle(t *testing.T) {
	// On a directed cycle there are no dangling vertices, so with enough
	// iterations the estimates must sum to ~1 and be ~uniform.
	g := gen.DirectedCycle(400)
	res := run(t, g, 8, AlgorithmOne(0.15), 3)
	var sum float64
	for _, e := range res.Estimate {
		sum += e
	}
	if math.Abs(sum-1) > 0.05 {
		t.Errorf("estimates sum to %g, want ~1", sum)
	}
	want := 1.0 / float64(g.N())
	var maxRel float64
	for v, e := range res.Estimate {
		rel := math.Abs(e-want) / want
		if rel > maxRel {
			maxRel = rel
		}
		if rel > 0.9 {
			t.Errorf("vertex %d estimate %g wildly off uniform %g", v, e, want)
		}
	}
}

func TestMatchesSolverOnRandomDigraph(t *testing.T) {
	g := gen.DirectedGnp(300, 0.02, 17)
	opts := AlgorithmOne(0.2)
	opts.Tokens = 256 // extra tokens tighten the Monte-Carlo noise
	res := run(t, g, 6, opts, 5)
	truth := graph.ExpectedVisitPageRank(g, graph.PageRankOptions{Eps: 0.2, Tol: 1e-12, MaxIter: 5000})
	// Compare on the high-rank half, where relative error is meaningful.
	var relSum float64
	var count int
	for v := range truth {
		if truth[v] < 1.0/float64(g.N()) {
			continue
		}
		relSum += math.Abs(res.Estimate[v]-truth[v]) / truth[v]
		count++
	}
	if count == 0 {
		t.Fatal("no high-rank vertices to compare")
	}
	if avg := relSum / float64(count); avg > 0.15 {
		t.Errorf("mean relative error %g on high-rank vertices, want < 0.15", avg)
	}
}

func TestDistinguishesLowerBoundBits(t *testing.T) {
	// The heart of Theorem 2: a correct PageRank algorithm reveals the
	// direction bits of the Figure-1 graph. PR(v_i | b=1)/PR(v_i | b=0)
	// ≈ 1.44 at eps = 0.15, so with enough tokens the estimates separate.
	const q = 24
	bits := make([]bool, q)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	lb := gen.LowerBoundGraphWithBits(bits, 7)
	opts := AlgorithmOne(0.15)
	opts.Tokens = 2048
	res := run(t, lb.G, 8, opts, 11)
	pr0, pr1 := gen.Lemma4Expected(0.15, lb.G.N())
	thresh := (pr0 + pr1) / 2
	correct := 0
	for i := 0; i < q; i++ {
		est := res.Estimate[lb.V(i)]
		if (est > thresh) == bits[i] {
			correct++
		}
	}
	if correct < q-1 {
		t.Errorf("recovered %d/%d direction bits; algorithm does not distinguish Lemma 4 cases", correct, q)
	}
}

func TestHeavyPathCorrectOnStar(t *testing.T) {
	// Undirected star: the hub accumulates ≫ k tokens each iteration, so
	// the heavy path is exercised; estimates must still match the solver.
	g := gen.Star(300)
	opts := AlgorithmOne(0.2)
	opts.Tokens = 512
	res := run(t, g, 8, opts, 13)
	truth := graph.ExpectedVisitPageRank(g, graph.PageRankOptions{Eps: 0.2, Tol: 1e-12, MaxIter: 5000})
	if rel := math.Abs(res.Estimate[0]-truth[0]) / truth[0]; rel > 0.1 {
		t.Errorf("hub estimate %g vs truth %g (rel err %g)", res.Estimate[0], truth[0], rel)
	}
	// Leaves are symmetric; spot-check the mean.
	var estMean, truthMean float64
	for v := 1; v < g.N(); v++ {
		estMean += res.Estimate[v]
		truthMean += truth[v]
	}
	estMean /= float64(g.N() - 1)
	truthMean /= float64(g.N() - 1)
	if rel := math.Abs(estMean-truthMean) / truthMean; rel > 0.1 {
		t.Errorf("leaf mean estimate %g vs truth %g", estMean, truthMean)
	}
}

func TestAlgorithmOneBeatsBaselineOnStar(t *testing.T) {
	// The paper's star example (§3.1): the baseline funnels one message
	// per leaf into the hub's machine (Θ(n/k) rounds per iteration);
	// Algorithm 1 aggregates to O(1) messages per machine. Theorem 2
	// assumes k = Ω(log² n), i.e. initial tokens c·log n < k, so leaves
	// start (and stay) light; we run in that regime.
	g := gen.Star(2000)
	const k = 32
	opts := AlgorithmOne(0.2)
	opts.Tokens = 16
	base := ConversionBaseline(0.2)
	base.Tokens = 16
	alg := run(t, g, k, opts, 19)
	bl := run(t, g, k, base, 19)
	algC, blC := commRounds(alg), commRounds(bl)
	if blC < 5*algC+20 {
		t.Errorf("Algorithm 1 comm rounds %d (total %d) not ≪ baseline %d (total %d) on star",
			algC, alg.Stats.Rounds, blC, bl.Stats.Rounds)
	}
}

func TestRoundsScaleSuperlinearlyInK(t *testing.T) {
	// Theorem 4: Õ(n/k²). Doubling k should cut rounds by ≫ 2 while the
	// communication term dominates. Run in the k > c·log n regime
	// (tokens < k) and cap iterations so the per-superstep floor of one
	// round does not mask the communication term.
	g := gen.Gnp(3000, 0.004, 23)
	opts := AlgorithmOne(0.15)
	opts.Tokens = 8
	opts.Iterations = 40
	r16 := run(t, g, 16, opts, 29)
	r32 := run(t, g, 32, opts, 29)
	c16, c32 := commRounds(r16), commRounds(r32)
	if c32 == 0 {
		c32 = 1
	}
	ratio := float64(c16) / float64(c32)
	if ratio < 2.2 {
		t.Errorf("k 16->32 comm-round speedup %.2fx (%d vs %d); Õ(n/k²) predicts ~4x, need > 2.2x",
			ratio, c16, c32)
	}
}

func TestOutputsCoverAllVertices(t *testing.T) {
	g := gen.DirectedGnp(200, 0.03, 31)
	res := run(t, g, 5, AlgorithmOne(0.15), 37)
	total := 0
	for _, c := range res.OutputsPerMachine {
		total += c
	}
	if total != g.N() {
		t.Errorf("machines output %d PageRank values, want %d", total, g.N())
	}
	for v, e := range res.Estimate {
		if e < 0 {
			t.Fatalf("negative estimate at vertex %d", v)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := gen.DirectedGnp(150, 0.04, 41)
	a := run(t, g, 4, AlgorithmOne(0.15), 43)
	b := run(t, g, 4, AlgorithmOne(0.15), 43)
	if a.Stats.Rounds != b.Stats.Rounds || a.Stats.Words != b.Stats.Words {
		t.Error("stats differ across identical runs")
	}
	for v := range a.Estimate {
		if a.Estimate[v] != b.Estimate[v] {
			t.Fatalf("estimate for %d differs across identical runs", v)
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	g := gen.DirectedCycle(10)
	p := partition.NewRVP(g, 4, 1)
	if _, err := Run(p, core.Config{K: 5, Bandwidth: 4, Seed: 1}, AlgorithmOne(0.15)); err == nil {
		t.Error("mismatched k accepted")
	}
	if _, err := Run(p, core.Config{K: 4, Bandwidth: 4, Seed: 1}, Options{Eps: 0}); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestBaselineMatchesSolverToo(t *testing.T) {
	// The baseline is slower, not wrong: estimates must also track truth.
	g := gen.DirectedGnp(150, 0.04, 47)
	opts := ConversionBaseline(0.2)
	opts.Tokens = 256
	res := run(t, g, 4, opts, 53)
	truth := graph.ExpectedVisitPageRank(g, graph.PageRankOptions{Eps: 0.2, Tol: 1e-12, MaxIter: 5000})
	var relSum float64
	var count int
	for v := range truth {
		if truth[v] < 1.0/float64(g.N()) {
			continue
		}
		relSum += math.Abs(res.Estimate[v]-truth[v]) / truth[v]
		count++
	}
	if avg := relSum / float64(count); avg > 0.15 {
		t.Errorf("baseline mean relative error %g, want < 0.15", avg)
	}
}

func TestPsiConsistentWithEstimates(t *testing.T) {
	g := gen.DirectedCycle(100)
	res := run(t, g, 4, AlgorithmOne(0.15), 59)
	scale := 0.15 / (float64(g.N()) * float64(res.TokensPerVertex))
	for v := range res.Estimate {
		if math.Abs(res.Estimate[v]-float64(res.Psi[v])*scale) > 1e-12 {
			t.Fatalf("estimate[%d] inconsistent with psi", v)
		}
	}
}

// TestPageRankHaltsWhenLastTokenDies pins the halting rule: a run stops
// at the first superstep after which no machine holds or sends a token,
// not when Options.Iterations runs out. Superstep s receives the tokens
// superstep s−1 sent and walks them as iteration s+1, so the I-th and
// last executed iteration ran at superstep I−1, killed the last token
// and sent nothing; every machine voted done with nothing in flight, and
// that final silent superstep is free, so Supersteps = I−1 and the last
// charged superstep, I−2, sent tokens. Past the death time the cap is
// invisible; below it the run executes exactly the cap, with pinned
// Stats: the walks of supersteps 0–9 and the superstep that receives
// the last walk's tokens, walks nothing and halts — 10 charged
// supersteps whenever a token survives the tenth walk, as one does on
// all three inputs. Each token message is charged once, on the one link
// it crosses.
func TestPageRankHaltsWhenLastTokenDies(t *testing.T) {
	type stats struct {
		Supersteps    int
		Rounds, Words int64
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		k      int
		capped stats // at Iterations = 10
	}{
		{"star", gen.Star(300), 8, stats{10, 55, 2850}},
		{"cycle", gen.DirectedCycle(400), 8, stats{10, 30, 6940}},
		{"gnp", gen.DirectedGnp(300, 0.02, 17), 6, stats{10, 93, 17978}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := AlgorithmOne(0.15)
			opts.ApplyDefaults(tc.g.N())
			res := run(t, tc.g, tc.k, opts, 61)
			st := res.Stats
			if res.Iterations >= opts.Iterations {
				t.Fatalf("ran %d iterations, all of its cap %d", res.Iterations, opts.Iterations)
			}
			if st.Supersteps != res.Iterations-1 || len(st.PerSuperstep) != st.Supersteps {
				t.Fatalf("%d iterations took %d supersteps (%d recorded), want %d",
					res.Iterations, st.Supersteps, len(st.PerSuperstep), res.Iterations-1)
			}
			if last := st.PerSuperstep[st.Supersteps-1]; last.Messages == 0 {
				t.Errorf("the walk of superstep %d sent nothing: the run outlived its last token", st.Supersteps-1)
			}

			loose := opts
			loose.Iterations *= 4
			if r := run(t, tc.g, tc.k, loose, 61); r.Iterations != res.Iterations ||
				r.Stats.Rounds != st.Rounds || r.Stats.Words != st.Words || !slices.Equal(r.Psi, res.Psi) {
				t.Errorf("a cap of %d changed the run: %d iterations, %d rounds, %d words (want %d, %d, %d)",
					loose.Iterations, r.Iterations, r.Stats.Rounds, r.Stats.Words, res.Iterations, st.Rounds, st.Words)
			}

			capped := opts
			capped.Iterations = 10
			r := run(t, tc.g, tc.k, capped, 61)
			got := stats{r.Stats.Supersteps, r.Stats.Rounds, r.Stats.Words}
			if r.Iterations != capped.Iterations || got != tc.capped {
				t.Errorf("capped at %d: ran %d iterations with %+v, want %+v",
					capped.Iterations, r.Iterations, got, tc.capped)
			}
		})
	}
}

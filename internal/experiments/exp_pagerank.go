package experiments

import (
	"fmt"
	"math"
	"strings"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/infotheory"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
)

// F1LowerBoundGraph reproduces Figure 1: builds H at several sizes and
// checks the structural invariants plus the Lemma 4 closed forms against
// the expected-visit solver.
func F1LowerBoundGraph(cfg Config) (Table, error) {
	t := Table{
		ID:     "F1",
		Title:  "PageRank lower-bound graph H (Figure 1)",
		Claim:  "H has n = 4q+1 vertices, m = n-1 edges; PR(v_i) follows Lemma 4's two cases",
		Header: []string{"q", "n", "m", "eps", "PR(v|b=0)", "PR(v|b=1)", "solver max err", "sep ratio"},
	}
	qs := []int{16, 64, 256}
	if cfg.Quick {
		qs = []int{16, 64}
	}
	const eps = 0.15
	for _, q := range qs {
		bits := make([]bool, q)
		for i := range bits {
			bits[i] = i%2 == 0
		}
		lb := gen.LowerBoundGraphWithBits(bits, cfg.Seed+uint64(q))
		pr := graph.ExpectedVisitPageRank(lb.G, graph.PageRankOptions{Eps: eps, Tol: 1e-13, MaxIter: 10000})
		want0, want1 := gen.Lemma4Expected(eps, lb.G.N())
		var maxErr float64
		for i := 0; i < q; i++ {
			want := want0
			if bits[i] {
				want = want1
			}
			if e := math.Abs(pr[lb.V(i)] - want); e > maxErr {
				maxErr = e
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(q), itoa(lb.G.N()), itoa(lb.G.M()), f64(eps),
			f64(want0), f64(want1), f64(maxErr), fmt.Sprintf("%.3f", want1/want0),
		})
	}
	t.Notes = append(t.Notes,
		"separation ratio (1+q+q²+q³)/(1+q+q²/2) is a constant > 1 for every eps < 1 (Lemma 4)")
	return t, nil
}

// E1PageRank reproduces the paper's headline PageRank claim: Algorithm 1
// runs in Õ(n/k²) rounds (Theorem 4) against the Ω̃(n/k²) lower bound
// (Theorem 2), improving the Õ(n/k) baseline of Klauck et al.
func E1PageRank(cfg Config) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "PageRank round complexity vs k",
		Claim:  "Thm 4: Õ(n/k²) (Algorithm 1) vs Õ(n/k) (baseline [33]); Thm 2: Ω̃(n/k²)",
		Header: []string{"graph", "n", "k", "alg1 rounds", "baseline rounds", "speedup", "GLBT LB", "comm", "Lemma 13 comm", "comm·k²/n"},
	}
	starN, gnpN := 4000, 3000
	iters := 40
	if cfg.Quick {
		starN, gnpN = 1500, 1200
		iters = 25
	}
	ks := []int{16, 32, 64}

	type family struct {
		name string
		g    *graph.Graph
	}
	families := []family{
		{"star", gen.Star(starN)},
		{"gnp", gen.Gnp(gnpN, 12/float64(gnpN), cfg.Seed+1)},
	}
	var commXs, commYs []float64
	var gnpKs, norms, speedups []string
	flat, atOrBelow, within := true, true, true
	var firstNorm float64
	for _, fam := range families {
		for _, k := range ks {
			p := partition.NewRVP(fam.g, k, cfg.Seed+uint64(k))
			b := core.DefaultBandwidth(fam.g.N())
			ccfg := core.Config{K: k, Bandwidth: b, Seed: cfg.Seed + uint64(k) + 1}
			opts := pagerank.AlgorithmOne(0.15)
			opts.Tokens, opts.Iterations = 8, iters
			alg, err := pagerank.Run(p, ccfg, opts)
			if err != nil {
				return t, fmt.Errorf("E1 algorithm 1 on %s at k=%d: %w", fam.name, k, err)
			}
			bopts := pagerank.ConversionBaseline(0.15)
			bopts.Tokens, bopts.Iterations = 8, iters
			base, err := pagerank.Run(p, ccfg, bopts)
			if err != nil {
				return t, fmt.Errorf("E1 baseline on %s at k=%d: %w", fam.name, k, err)
			}
			lb := infotheory.PageRankBound(fam.g.N(), k, b*core.DefaultBandwidth(fam.g.N()))
			// comm is the rounds over the walk's floor of one round per
			// superstep, the Õ's additive term; bound is what Lemma 13
			// lets it be (lemma13Comm).
			comm := alg.Stats.Rounds - int64(alg.Stats.Supersteps)
			bound := lemma13Comm(alg.Stats, k, b)
			norm := float64(comm) * float64(k*k) / float64(fam.g.N())
			t.Rows = append(t.Rows, []string{
				fam.name, itoa(fam.g.N()), itoa(k),
				i64(alg.Stats.Rounds), i64(base.Stats.Rounds),
				ratio(base.Stats.Rounds, alg.Stats.Rounds),
				f64(lb.Rounds), i64(comm), i64(bound), f64(norm),
			})
			within = within && comm <= bound
			if fam.name != "gnp" {
				continue
			}
			if comm > 0 {
				commXs = append(commXs, float64(k))
				commYs = append(commYs, float64(comm))
			}
			if len(norms) == 0 {
				firstNorm = norm
			}
			flat = flat && norm <= firstNorm
			gnpKs, norms = append(gnpKs, itoa(k)), append(norms, f64(norm))
			atOrBelow = atOrBelow && alg.Stats.Rounds <= base.Stats.Rounds
			speedups = append(speedups, ratio(base.Stats.Rounds, alg.Stats.Rounds))
		}
	}
	if len(commXs) >= 2 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"gnp comm-rounds ~ k^%.2f (Õ(n/k²) predicts -2; Õ(n/k) baseline would give -1)",
			fitExponent(commXs, commYs)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("comm is rounds over one per superstep; every row's is within Lemma 13's, the sum over supersteps of ⌈%d·LinkShare(x, k−1)/B⌉ − 1 with x the most messages any machine sent (Thm 4's proof: each link carries a binomial share of a machine's light messages) — %s",
			pagerank.MsgWords, verdict(within)),
		fmt.Sprintf("gnp comm·k²/n = %s at k = %s, never above its value at the smallest k (Thm 4: comm-rounds = Õ(n/k²), so comm·k²/n stays bounded as k grows) — %s: where a link's mean load is near B the busiest direct link carries the binomial's tail, which Lemma 13 allows (DESIGN.md, two-hop routing)",
			strings.Join(norms, " / "), strings.Join(gnpKs, " / "), verdict(flat)),
		fmt.Sprintf("gnp speedup = %s, Algorithm 1 at or below the baseline on every gnp row (Thm 4 vs the Õ(n/k) baseline) — %s; the benign gnp input has little to aggregate, so the Θ(k)-sized gap shows on the star rows",
			strings.Join(speedups, " / "), verdict(atOrBelow)))
	return t, nil
}

// lemma13Comm bounds the comm-rounds of an Algorithm 1 run whp. In a
// superstep a machine sends at most one light message per destination
// vertex, homed uniformly over the other k−1 machines by the random
// vertex partition, and at most one heavy message per (vertex, machine)
// pair, so of its x messages a link carries at most LinkShare(x, k−1)
// whp; x is bounded by the superstep's busiest sender. A superstep then
// takes at most ⌈MsgWords·LinkShare(x, k−1)/B⌉ rounds, one of them the
// floor.
func lemma13Comm(st *core.Stats, k, b int) int64 {
	var comm int64
	for _, ss := range st.PerSuperstep {
		x := int(ss.MaxSentWords) / pagerank.MsgWords
		words := int64(pagerank.MsgWords * routing.LinkShare(x, k-1))
		comm += max((words+int64(b)-1)/int64(b), 1) - 1
	}
	return comm
}

// E3Separation reproduces Lemma 4 end to end: the distributed Algorithm 1
// recovers the hidden direction bits of H from its PageRank estimates.
func E3Separation(cfg Config) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "Lemma 4 separation on H, recovered by the distributed algorithm",
		Claim:  "PR(v_i) differs by a constant factor between b_i = 0 and 1; a correct algorithm learns every b_i",
		Header: []string{"q", "tokens", "eps", "bits recovered", "accuracy"},
	}
	q := 48
	tokens := 2048
	if cfg.Quick {
		q, tokens = 24, 1024
	}
	for _, eps := range []float64{0.15, 0.3} {
		bits := make([]bool, q)
		for i := range bits {
			bits[i] = (i*7+3)%2 == 0
		}
		lb := gen.LowerBoundGraphWithBits(bits, cfg.Seed+7)
		p := partition.NewRVP(lb.G, 8, cfg.Seed+11)
		opts := pagerank.AlgorithmOne(eps)
		opts.Tokens = tokens
		res, err := pagerank.Run(p, core.Config{K: 8, Bandwidth: core.DefaultBandwidth(lb.G.N()), Seed: cfg.Seed + 13}, opts)
		if err != nil {
			return t, fmt.Errorf("E3 separation at eps=%g: %w", eps, err)
		}
		want0, want1 := gen.Lemma4Expected(eps, lb.G.N())
		thresh := (want0 + want1) / 2
		correct := 0
		for i := 0; i < q; i++ {
			if (res.Estimate[lb.V(i)] > thresh) == bits[i] {
				correct++
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(q), itoa(tokens), f64(eps),
			fmt.Sprintf("%d/%d", correct, q),
			fmt.Sprintf("%.1f%%", 100*float64(correct)/float64(q)),
		})
	}
	t.Notes = append(t.Notes,
		"recovering the bits is what forces Ω̃(n/k²) rounds: the bits are Θ(n) bits of information no machine starts with (Lemmas 5, 7, 8)")
	return t, nil
}

// E10Balance verifies Lemmas 12 and 14: in every iteration of
// Algorithm 1, no machine sends or receives more than Õ(n/k) messages,
// and deliveries complete in Õ(n/k²) rounds per iteration. Stats count
// words, and a token message is pagerank.MsgWords of them, so the
// bound the word columns meet is MsgWords·n·log n/k.
func E10Balance(cfg Config) (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "Algorithm 1 per-iteration communication balance",
		Claim:  "Lemma 12: Õ(n/k) messages sent per machine per iteration; Lemma 14: Õ(n/k²) delivery rounds",
		Header: []string{"graph", "n", "k", "max words sent/superstep", "max words recv/superstep", "bound msgWords·n·log n/k", "max rounds/superstep"},
	}
	n := 3000
	if cfg.Quick {
		n = 1200
	}
	k := 32
	logn := math.Log2(float64(n))
	bound := pagerank.MsgWords * float64(n) * logn / float64(k)
	var loads []string
	below := true
	for _, g := range []*graph.Graph{gen.Star(n), gen.Gnp(n, 12/float64(n), cfg.Seed+3)} {
		name := "gnp"
		if g.Degree(0) == n-1 {
			name = "star"
		}
		p := partition.NewRVP(g, k, cfg.Seed+17)
		opts := pagerank.AlgorithmOne(0.15)
		opts.Tokens, opts.Iterations = 8, 30
		res, err := pagerank.Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(n), Seed: cfg.Seed + 19}, opts)
		if err != nil {
			return t, fmt.Errorf("E10 balance on %s: %w", name, err)
		}
		var maxSent, maxRecv, maxRounds int64
		for _, ss := range res.Stats.PerSuperstep {
			if ss.MaxSentWords > maxSent {
				maxSent = ss.MaxSentWords
			}
			if ss.MaxRecvWords > maxRecv {
				maxRecv = ss.MaxRecvWords
			}
			if ss.Rounds > maxRounds {
				maxRounds = ss.Rounds
			}
		}
		t.Rows = append(t.Rows, []string{
			name, itoa(n), itoa(k), i64(maxSent), i64(maxRecv),
			f64(bound), i64(maxRounds),
		})
		loads = append(loads, fmt.Sprintf("%s %d / %d", name, maxSent, maxRecv))
		below = below && float64(maxSent) <= bound && float64(maxRecv) <= bound
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"max words sent / recv per superstep: %s, both columns at or below msgWords·n·log n/k = %s on every row, msgWords = %d words per token message (Lemma 12: Õ(n/k) messages per machine, the skewed star included) — %s",
		strings.Join(loads, ", "), f64(bound), pagerank.MsgWords, verdict(below)))
	return t, nil
}

// E14Ablations quantifies the paper's three §3.1/§3.2 mechanisms by
// disabling them one at a time.
func E14Ablations(cfg Config) (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "ablations: aggregation, heavy-vertex path, proxies",
		Claim:  "each §3 mechanism is load-bearing on skewed inputs",
		Header: []string{"workload", "variant", "rounds", "vs full"},
	}
	n := 2000
	if cfg.Quick {
		n = 1000
	}
	const k = 32
	g := gen.Star(n)
	p := partition.NewRVP(g, k, cfg.Seed+23)
	ccfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(n), Seed: cfg.Seed + 29}

	runPR := func(mod func(*pagerank.Options)) (int64, error) {
		opts := pagerank.AlgorithmOne(0.2)
		opts.Tokens, opts.Iterations = 16, 30
		mod(&opts)
		res, err := pagerank.Run(p, ccfg, opts)
		if err != nil {
			return 0, err
		}
		return res.Stats.Rounds, nil
	}
	full, err := runPR(func(*pagerank.Options) {})
	if err != nil {
		return t, fmt.Errorf("E14 pagerank full variant: %w", err)
	}
	variants := []struct {
		name string
		mod  func(*pagerank.Options)
	}{
		{"full (Algorithm 1)", func(*pagerank.Options) {}},
		{"no aggregation", func(o *pagerank.Options) { o.Aggregate = false }},
		{"no heavy path", func(o *pagerank.Options) { o.HeavyPath = false }},
		{"none (baseline [33])", func(o *pagerank.Options) { o.Aggregate, o.HeavyPath = false, false }},
	}
	for _, v := range variants {
		r, err := runPR(v.mod)
		if err != nil {
			return t, fmt.Errorf("E14 pagerank variant %q: %w", v.name, err)
		}
		t.Rows = append(t.Rows, []string{"pagerank/star", v.name, i64(r), ratio(r, full)})
	}

	triRows, err := trianglesAblation(cfg)
	if err != nil {
		return t, fmt.Errorf("E14 triangle ablation: %w", err)
	}
	t.Rows = append(t.Rows, triRows...)
	t.Notes = append(t.Notes,
		"vs-full > 1x marks the mechanism as load-bearing for that workload; two-hop routing has no row because Algorithm 1 sends its light tokens direct: the random vertex partition homes their destination vertices independently of the graph, so each link carries a binomial share of them, and the second superstep a relay adds per iteration costs more rounds than its placement saves (DESIGN.md, two-hop routing); its Θ(k) effect on a concentrated flow is isolated in E7's direct-vs-two-hop rows")
	return t, nil
}

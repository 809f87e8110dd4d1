package pagerank

import (
	"testing"
	"testing/quick"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/partition"
)

// Property tests for structural invariants of the token process that
// hold for every graph, partition and option combination.

// TestPropertyPsiConservation: psi counts every token visit, so
// n·tokens <= Σψ <= n·tokens·(iterations+1): each of the n·tokens
// initial tokens contributes its starting visit and at most one visit
// per iteration afterwards.
func TestPropertyPsiConservation(t *testing.T) {
	f := func(seedRaw uint16, kSel, tokSel uint8) bool {
		seed := uint64(seedRaw)
		n := 50 + int(seedRaw%200)
		g := gen.DirectedGnp(n, 4/float64(n), seed)
		k := []int{2, 4, 8}[kSel%3]
		tokens := []int{4, 16, 64}[tokSel%3]
		p := partition.NewRVP(g, k, seed+1)
		opts := AlgorithmOne(0.2)
		opts.Tokens = tokens
		opts.Iterations = 20
		res, err := Run(p, core.Config{K: k, Bandwidth: 8, Seed: seed + 2}, opts)
		if err != nil {
			return false
		}
		var sum int64
		for _, psi := range res.Psi {
			sum += psi
		}
		lo := int64(n) * int64(tokens)
		hi := lo * int64(opts.Iterations+1)
		return sum >= lo && sum <= hi
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyEstimatesNonNegativeAndBounded: every estimate is in
// [0, (iterations+1)·eps] regardless of options.
func TestPropertyEstimatesBounded(t *testing.T) {
	f := func(seedRaw uint16, aggSel, heavySel uint8) bool {
		seed := uint64(seedRaw) + 5000
		n := 40 + int(seedRaw%100)
		g := gen.DirectedGnp(n, 6/float64(n), seed)
		p := partition.NewRVP(g, 4, seed+1)
		opts := Options{
			Eps:        0.2,
			Tokens:     8,
			Iterations: 15,
			Aggregate:  aggSel%2 == 0,
			HeavyPath:  heavySel%2 == 0,
		}
		res, err := Run(p, core.Config{K: 4, Bandwidth: 8, Seed: seed + 2}, opts)
		if err != nil {
			return false
		}
		hi := float64(opts.Iterations+1) * opts.Eps
		for _, e := range res.Estimate {
			if e < 0 || e > hi {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyOptionAgreement: all four option combinations compute the
// same process (identical expectations), so their total psi mass should
// agree within Monte-Carlo noise on a fixed graph.
func TestPropertyOptionAgreement(t *testing.T) {
	g := gen.Gnp(400, 0.01, 61)
	p := partition.NewRVP(g, 8, 67)
	var masses []float64
	for _, agg := range []bool{true, false} {
		for _, heavy := range []bool{true, false} {
			opts := Options{Eps: 0.2, Tokens: 64, Iterations: 40, Aggregate: agg, HeavyPath: heavy}
			res, err := Run(p, core.Config{K: 8, Bandwidth: 8, Seed: 71}, opts)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, psi := range res.Psi {
				sum += psi
			}
			masses = append(masses, float64(sum))
		}
	}
	// Expected total mass: n·tokens/eps (geometric visit chain). All
	// variants must be within 10% of each other.
	min, max := masses[0], masses[0]
	for _, m := range masses {
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	if max/min > 1.1 {
		t.Errorf("option combinations disagree on total visit mass: min %g, max %g", min, max)
	}
}

// TestUndirectedGraphWalk: PageRank on an undirected graph walks the
// symmetric adjacency (every neighbour is an out-neighbour).
func TestUndirectedGraphWalk(t *testing.T) {
	g := gen.Cycle(200)
	p := partition.NewRVP(g, 4, 73)
	opts := AlgorithmOne(0.15)
	opts.Tokens = 64
	res, err := Run(p, core.Config{K: 4, Bandwidth: 8, Seed: 79}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric cycle: all estimates near 1/n.
	want := 1.0 / float64(g.N())
	for v, e := range res.Estimate {
		if e < want/3 || e > want*3 {
			t.Errorf("undirected cycle vertex %d estimate %g far from uniform %g", v, e, want)
		}
	}
}

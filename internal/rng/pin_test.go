package rng

import (
	"math"
	"testing"
)

// drawDigest folds `draws` outputs of draw into one word, so a single
// changed draw anywhere in the sequence changes the digest.
func drawDigest(draws int, draw func() uint64) uint64 {
	var h uint64
	for i := 0; i < draws; i++ {
		h = Mix(h ^ draw())
	}
	return h
}

const pinDraws = 1_000_000

// TestUint64nDrawsPinned pins the exact sequence Uint64n draws. Every
// random choice of every algorithm goes through it, so output hashes,
// Stats and checkpoint bytes depend on each of these draws; a faster
// implementation must reproduce them all. n = 2⁶³+1 rejects about half
// its first draws, so the rejection loop is pinned too.
func TestUint64nDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want uint64
	}{
		{1, 0x1a19b83d24e916e2},
		{2, 0xdef509c0e1534dd9},
		{3, 0x1ee7c044e5d990e4},
		{7, 0xc8f607f84bc638a9},
		{8, 0x38528bee8220325b},
		{13, 0xccfb04e536cc07fd},
		{1<<32 + 1, 0xfd40d2416bba9cdd},
		{1<<63 + 1, 0xc5af82df7c451c16},
	} {
		r := New(c.n)
		if got := drawDigest(pinDraws, func() uint64 { return r.Uint64n(c.n) }); got != c.want {
			t.Errorf("Uint64n(%d): %d draws digest to %#x, recorded %#x", c.n, pinDraws, got, c.want)
		}
	}
}

// TestAliasDrawsPinned pins the exact indices Alias.Sample draws over
// weights with zeros, a singleton, all-equal weights, a PageRank-like
// count vector, and a vector whose scaled probabilities are left on the
// small list by rounding (NewAlias's "numerical leftovers").
func TestAliasDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		weights []float64
		want    uint64
	}{
		{"zeros", []float64{0, 1, 0, 3, 0, 2}, 0xeb2bfa5670b583ac},
		{"singleton", []float64{3.5}, 0x1a19b83d24e916e2},
		{"equal", []float64{1, 1, 1, 1, 1, 1, 1, 1}, 0x0b2d89cde65d04a1},
		{"counts", []float64{3, 1, 4, 1, 5, 9, 2, 6}, 0x00a5b57a782db526},
		{"leftovers", []float64{10.0 / 7, 1}, 0x6ec50227daf62672},
	} {
		a := NewAlias(c.weights)
		r := New(uint64(len(c.name)))
		if got := drawDigest(pinDraws, func() uint64 { return uint64(a.Sample(r)) }); got != c.want {
			t.Errorf("Alias %s: %d draws digest to %#x, recorded %#x", c.name, pinDraws, got, c.want)
		}
	}
}

// TestBinomialDrawsPinned pins Binomial in its three regimes: direct
// trials (n ≤ 32), geometric skips, and the normal approximation, plus
// the p > 1/2 reflection.
func TestBinomialDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		n    int64
		p    float64
		want uint64
	}{
		{20, 0.15, 0xc4e9e306ddcc5e34},
		{200, 0.05, 0xd46828db5d2f0ff5},
		{1 << 20, 0.15, 0x2e47ee3a00333c86},
		{200, 0.95, 0x3f331de2379c984c},
	} {
		r := New(uint64(c.n))
		if got := drawDigest(pinDraws, func() uint64 { return uint64(r.Binomial(c.n, c.p)) }); got != c.want {
			t.Errorf("Binomial(%d, %g): %d draws digest to %#x, recorded %#x", c.n, c.p, pinDraws, got, c.want)
		}
	}
}

// TestThresholdMatchesFloatCompare checks Alias's integer threshold at
// its boundary, where a sampled pin almost never lands: the largest
// kept draw x = thr-1 and the smallest rejected one x = thr must agree
// with the float comparison Float64() < p that Sample replaced.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	r := New(53)
	ps := []float64{0, 0x1p-60, 0x1p-53, 1.0 / 3, 0.15, 0.5, math.Nextafter(1, 0), 1}
	for i := 0; i < 100_000; i++ {
		ps = append(ps, r.Float64(), float64(r.Uint64n(1<<20))/(1<<20))
	}
	for _, p := range ps {
		thr := threshold(p)
		for _, x := range []uint64{thr - 1, thr} {
			if x >= 1<<53 {
				continue // thr-1 wrapped (p = 0) or thr = 2⁵³: no such draw
			}
			if got, want := x < thr, float64(x)/(1<<53) < p; got != want {
				t.Fatalf("p=%v: draw %d kept=%v, float compare says %v", p, x, got, want)
			}
		}
	}
}

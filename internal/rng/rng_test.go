package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a, b := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("independent streams collided %d times in 1000 draws", same)
	}
}

func TestMixBijectivityOnSample(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix collision: Mix(%d) == Mix(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g beyond 5 sigma", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(11)
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.3}, {100, 0.15}, {1000, 0.5}, {50000, 0.15}, {1 << 20, 0.25},
	}
	for _, c := range cases {
		const reps = 300
		var sum, sumsq float64
		for i := 0; i < reps; i++ {
			v := float64(r.Binomial(c.n, c.p))
			if v < 0 || v > float64(c.n) {
				t.Fatalf("Binomial(%d,%g) out of range: %v", c.n, c.p, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / reps
		wantMean := float64(c.n) * c.p
		wantSD := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-wantMean) > 6*wantSD/math.Sqrt(reps) {
			t.Errorf("Binomial(%d,%g): mean %g, want ~%g", c.n, c.p, mean, wantMean)
		}
		variance := sumsq/reps - mean*mean
		if variance < wantSD*wantSD/3 || variance > wantSD*wantSD*3 {
			t.Errorf("Binomial(%d,%g): variance %g, want ~%g", c.n, c.p, variance, wantSD*wantSD)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(13)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d, want 0", got)
	}
	if got := r.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d, want 0", got)
	}
	if got := r.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d, want 100", got)
	}
	if got := r.Binomial(-5, 0.5); got != 0 {
		t.Errorf("Binomial(-5, .5) = %d, want 0", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	const p, reps = 0.2, 50000
	var sum float64
	for i := 0; i < reps; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / reps
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%g) mean %g, want ~%g", p, mean, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(29)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw) % (n + 1)
		s := r.Sample(n, m)
		if len(s) != m {
			return false
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(31)
	xs := []int{1, 2, 2, 3, 5, 8, 13}
	orig := map[int]int{}
	for _, x := range xs {
		orig[x]++
	}
	Shuffle(r, xs)
	got := map[int]int{}
	for _, x := range xs {
		got[x]++
	}
	for k, v := range orig {
		if got[k] != v {
			t.Fatalf("Shuffle changed multiset: key %d count %d want %d", k, got[k], v)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	r := New(37)
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	const draws = 200000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := counts[i] / draws
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("alias index %d frequency %g, want %g", i, got, want)
		}
	}
}

func TestAliasSingleton(t *testing.T) {
	a := NewAlias([]float64{3.5})
	r := New(41)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("singleton alias sampled non-zero index")
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 1})
	r := New(43)
	for i := 0; i < 10000; i++ {
		v := a.Sample(r)
		if v == 0 || v == 2 {
			t.Fatalf("alias sampled zero-weight index %d", v)
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"zero-sum": {0, 0},
		"negative": {1, -1},
	} {
		w := weights
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewAlias(%v) did not panic", w)
				}
			}()
			NewAlias(w)
		})
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(47)
	const reps = 100000
	var sum, sumsq float64
	for i := 0; i < reps; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / reps
	variance := sumsq / reps
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %g, want ~1", variance)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1<<20, 0.15)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	r := New(1)
	w := make([]float64, 64)
	for i := range w {
		w[i] = float64(i + 1)
	}
	a := NewAlias(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sample(r)
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(10)
	}
}

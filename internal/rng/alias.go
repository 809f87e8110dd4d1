package rng

import "math"

// Alias is a Walker alias table for O(1) sampling from a fixed discrete
// distribution. Algorithm 1 of the paper (heavy-vertex path, line 23)
// samples a destination machine for every token of a heavy vertex from
// the distribution (n_{1,u}/d_u, ..., n_{k,u}/d_u); a heavy vertex can
// hold Θ(n log n) tokens, so per-sample cost matters.
//
// Column i keeps i with probability prob[i] and yields alias[i]
// otherwise. The table stores that probability as the integer threshold
// thr[i] = ceil(prob[i]·2⁵³): Float64() is exactly (u>>11)·2⁻⁵³ for the
// next word u, and for an integer x, x·2⁻⁵³ < p exactly when
// x < ceil(p·2⁵³). Comparing u>>11 against thr[i] therefore keeps
// exactly the draws the float comparison kept, without the conversion.
type Alias struct {
	thr   []uint64
	alias []int32
}

// NewAlias builds an alias table for the given non-negative weights.
// It panics if weights is empty or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias with empty weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: NewAlias with negative weight")
		}
		sum += w
	}
	if sum == 0 {
		panic("rng: NewAlias with zero total weight")
	}
	a := &Alias{thr: make([]uint64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.thr[s] = threshold(scaled[s])
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.thr[i] = 1 << 53
		a.alias[i] = i
	}
	for _, i := range small {
		a.thr[i] = 1 << 53 // numerical leftovers
		a.alias[i] = i
	}
	return a
}

// threshold returns ceil(p·2⁵³), the integer form of Float64() < p.
func threshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// N returns the support size of the table.
func (a *Alias) N() int { return len(a.thr) }

// Sample draws one index from the distribution.
func (a *Alias) Sample(r *RNG) int {
	i := r.Uint64n(uint64(len(a.thr)))
	j := uint64(a.alias[i])
	if r.Uint64()>>11 < a.thr[i] {
		j = i
	}
	return int(j)
}

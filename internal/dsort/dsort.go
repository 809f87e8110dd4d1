// Package dsort implements distributed sorting in the k-machine model —
// the §1.3 example of the paper's General Lower Bound Theorem cookbook:
// n keys are randomly distributed across the k machines and, at the end,
// machine i must hold the i-th block of n/k order statistics. The GLBT
// gives Ω̃(n/k²) rounds for this problem; the sample-sort algorithm here
// matches it in Õ(n/k²).
//
// The algorithm is a three-phase sample sort:
//
//  1. splitter agreement — every machine broadcasts its local samples
//     (16·k per machine by default, see resolveInput: a Θ(k)-word link,
//     not yet the Θ(log n) the analysis wants — ROADMAP item 13); all
//     machines deterministically derive the same k-1 splitters from the
//     union;
//  2. bucket routing — each key is routed (Valiant two-hop, Lemma 13) to
//     the machine owning its splitter bucket; per-link load is Õ(n/k²)
//     whp because both samples and hops are uniform;
//  3. exact rebalance — machines broadcast bucket sizes (k words each),
//     compute every key's exact global rank from prefix sums, and
//     forward the few boundary keys that belong to a neighbouring
//     machine's block. Sampling errors make this volume o(n/k) whp.
//
// The output is exact: machine i finishes with precisely the order
// statistics (i·n/k, (i+1)·n/k], sorted.
package dsort

import (
	"cmp"
	"fmt"
	"slices"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/rng"
	"kmachine/internal/routing"
)

// Input is the initial key distribution: Keys[i] are machine i's keys.
type Input struct {
	Keys [][]uint64
}

// RandomInput deals n keys drawn from keyGen to k machines uniformly —
// the random distribution the problem statement assumes.
func RandomInput(n, k int, seed uint64, keyGen func(r *rng.RNG) uint64) *Input {
	r := rng.New(seed)
	in := &Input{Keys: make([][]uint64, k)}
	for m := range in.Keys {
		in.Keys[m] = make([]uint64, 0, routing.LinkShare(n, k))
	}
	for i := 0; i < n; i++ {
		m := r.Intn(k)
		in.Keys[m] = append(in.Keys[m], keyGen(r))
	}
	return in
}

// UniformKeys is the default key generator: uniform 63-bit keys.
func UniformKeys(r *rng.RNG) uint64 { return r.Uint64() >> 1 }

// SkewedKeys concentrates 90% of the mass on a tiny range, stressing the
// splitter logic.
func SkewedKeys(r *rng.RNG) uint64 {
	if r.Intn(10) != 0 {
		return r.Uint64() % 1024
	}
	return r.Uint64() >> 1
}

// Result reports a distributed sort.
type Result struct {
	// Blocks[i] is machine i's final sorted block.
	Blocks [][]uint64
	// Stats is the measured communication profile.
	Stats *core.Stats
	// RebalancedKeys counts keys moved in the exact-rebalance phase.
	RebalancedKeys int64
}

const (
	kindSample = iota
	kindKey
	kindSize
	kindFinal
)

// smsg is one sort message: a sample, key or rebalanced key in Value,
// or, for kindSize, the sender's bucket size.
type smsg struct {
	Kind  uint8
	Value uint64
}

type wire = routing.Hop[smsg]

type sortMachine struct {
	k, n       int
	samplesPer int
	keys       []uint64

	samples   []uint64
	splitters []uint64
	bucket    []uint64
	sizes     []int64
	final     []uint64
	rebal     int64
	sizesIn   int

	// buckets[j] collects the superstep's envelopes addressed to machine
	// j; core.EmitBuckets hands the non-self buckets to the transport
	// and returns the self-addressed one as the rest.
	buckets [][]core.Envelope[wire]
	// sortTmp is the radix-sort ping-pong buffer, shared by the three
	// key sorts of a run.
	sortTmp []uint64
}

// sortKeys sorts xs ascending. Comparison sort below a small cutoff,
// LSD radix (graph.RadixSort) above it: the phase sorts dominate the
// run's local work and a byte-wise radix pass over uniform uint64 keys
// avoids pdqsort's branch-miss-heavy comparisons. The output is the
// ascending multiset either way, so run behaviour is unchanged.
func (m *sortMachine) sortKeys(xs []uint64) {
	const radixCutoff = 128
	if len(xs) < radixCutoff {
		slices.Sort(xs)
		return
	}
	if cap(m.sortTmp) < len(xs) {
		m.sortTmp = make([]uint64, len(xs))
	}
	if sorted, _ := graph.RadixSort(xs, m.sortTmp[:len(xs)], 0, 8); &sorted[0] != &xs[0] {
		copy(xs, sorted)
	}
}

// searchGreater returns the smallest index i with xs[i] > key (len(xs)
// if none) — sort.Search semantics without the per-probe closure call.
func searchGreater[T cmp.Ordered](xs []T, key T) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (m *sortMachine) Step(ctx *core.StepContext, inbox []core.Envelope[wire]) ([]core.Envelope[wire], bool) {
	buckets := m.buckets
	for j := range buckets {
		buckets[j] = buckets[j][:0]
	}
	// One pass over the inbox: second-hop envelopes go to their final
	// machine's bucket, arrived payloads straight into the phase state.
	for i := range inbox {
		e := &inbox[i]
		if e.Msg.Final != ctx.Self {
			routing.Forward(buckets, e)
			continue
		}
		switch d := &e.Msg.Msg; d.Kind {
		case kindSample:
			m.samples = append(m.samples, d.Value)
		case kindKey:
			m.bucket = append(m.bucket, d.Value)
		case kindSize:
			m.sizes = append(m.sizes, int64(d.Value))
			m.sizesIn++
		case kindFinal:
			m.final = append(m.final, d.Value)
		}
	}

	switch ctx.Superstep {
	case 0:
		// Phase 1: broadcast local samples (duplicated to every machine
		// so all derive identical splitters).
		sampleCount := m.samplesPer
		if sampleCount > len(m.keys) {
			sampleCount = len(m.keys)
		}
		idx := ctx.RNG.Sample(len(m.keys), sampleCount)
		mySamples := make([]uint64, 0, sampleCount)
		for _, i := range idx {
			mySamples = append(mySamples, m.keys[i])
		}
		m.samples = append(m.samples, mySamples...) // self-copy
		for j := 0; j < ctx.K; j++ {
			if core.MachineID(j) == ctx.Self {
				continue
			}
			for _, s := range mySamples {
				routing.RouteDirect(buckets, core.MachineID(j), 1, smsg{Kind: kindSample, Value: s})
			}
		}

	case 1:
		// Phase 2: derive splitters and route keys to bucket machines.
		m.sortKeys(m.samples)
		m.splitters = make([]uint64, 0, ctx.K-1)
		for j := 1; j < ctx.K; j++ {
			m.splitters = append(m.splitters, m.samples[j*len(m.samples)/ctx.K])
		}
		for _, key := range m.keys {
			b := searchGreater(m.splitters, key)
			if core.MachineID(b) == ctx.Self {
				m.bucket = append(m.bucket, key)
				continue
			}
			routing.Route(buckets, ctx.RNG, ctx.K, core.MachineID(b), 1, smsg{Kind: kindKey, Value: key})
		}

	case 2:
		// Relay hop for key routing: the forwards are in the buckets.

	case 3:
		// Phase 3a: broadcast bucket size.
		m.sortKeys(m.bucket)
		m.sizes = nil
		m.sizesIn = 0
		for j := 0; j < ctx.K; j++ {
			if core.MachineID(j) == ctx.Self {
				continue
			}
			routing.RouteDirect(buckets, core.MachineID(j), 1, smsg{Kind: kindSize, Value: uint64(len(m.bucket))})
		}

	case 4:
		// Phase 3b: sizes arrive ordered by sender machine ID (the
		// cluster assembles inboxes in machine order), so insert our own
		// at our index to get the global size vector.
		sizes := make([]int64, 0, ctx.K)
		idx := 0
		for j := 0; j < ctx.K; j++ {
			if core.MachineID(j) == ctx.Self {
				sizes = append(sizes, int64(len(m.bucket)))
				continue
			}
			sizes = append(sizes, m.sizes[idx])
			idx++
		}
		prefix := int64(0)
		for j := 0; int(j) < int(ctx.Self); j++ {
			prefix += sizes[j]
		}
		// Exact global rank of bucket[i] is prefix + i; ship each key to
		// the machine owning that rank's block. Boundary keys mostly
		// target the adjacent machine, so they go two-hop as well —
		// a direct send would serialise one link.
		bounds := blockBounds(m.n, ctx.K)
		for i, key := range m.bucket {
			rank := prefix + int64(i)
			target := core.MachineID(searchGreater(bounds[1:ctx.K+1], rank))
			if target == ctx.Self {
				m.final = append(m.final, key)
				continue
			}
			m.rebal++
			routing.Route(buckets, ctx.RNG, ctx.K, target, 1, smsg{Kind: kindFinal, Value: key})
		}

	case 5:
		// Relay hop for rebalance keys: the forwards are in the buckets.

	default:
		m.sortKeys(m.final)
		return core.EmitBuckets(ctx, buckets), true
	}
	return core.EmitBuckets(ctx, buckets), false
}

// blockBounds returns the k+1 rank boundaries: machine i owns global
// ranks [bounds[i], bounds[i+1]).
func blockBounds(n, k int) []int64 {
	b := make([]int64, k+1)
	for i := 0; i <= k; i++ {
		b[i] = int64(i) * int64(n) / int64(k)
	}
	return b
}

// newSortMachine builds machine id's state from the shared input — the
// construction every substrate uses.
func newSortMachine(id core.MachineID, in *Input, n, k, samplesPerMachine int) *sortMachine {
	m := &sortMachine{k: k, n: n, samplesPer: samplesPerMachine, keys: in.Keys[id]}
	// Presize the working buffers to the phase maxima (whp): the run is
	// only ~7 supersteps, too few to amortise append-growth chains.
	// Capacities only — contents and behaviour are unchanged; a phase
	// that outgrows one falls back to append.
	//
	// A per-destination bucket is one link's load. On the first hop this
	// machine's ~|keys| envelopes each draw a uniform intermediate; on the
	// second it relays the 1/k of every splitter bucket (≈ n/k keys each)
	// that drew it — either way ≈ |keys|/k per link, and Lemma 13's
	// concentration sizes the buffer as it bounds the rounds. The
	// broadcast phases put samplesPer envelopes on every link.
	link := routing.LinkShare(len(m.keys), k)
	if samplesPerMachine > link {
		link = samplesPerMachine
	}
	m.buckets = make([][]core.Envelope[wire], k)
	for j := range m.buckets {
		m.buckets[j] = make([]core.Envelope[wire], 0, link)
	}
	sz := len(m.keys) + k
	m.samples = make([]uint64, 0, k*samplesPerMachine)
	m.bucket = make([]uint64, 0, sz)
	m.final = make([]uint64, 0, sz)
	return m
}

// Run sorts the input across k machines. cfg.K must equal len(in.Keys).
// The input is not a graph, so Descriptor's machines run over an
// edgeless partition that only supplies their identities.
func Run(in *Input, cfg core.Config, samplesPerMachine int) (*Result, error) {
	a, err := Descriptor(in, samplesPerMachine)
	if err != nil {
		return nil, err
	}
	res, stats, err := algo.Run(a, algo.EdgelessInput(algo.Problem{K: cfg.K}), cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// resolveInput derives the global key count and the samples-per-machine
// default.
func resolveInput(in *Input, samplesPerMachine int) (n, samples int, err error) {
	for _, ks := range in.Keys {
		n += len(ks)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("dsort: empty input")
	}
	if samplesPerMachine <= 0 {
		samplesPerMachine = 16 * len(in.Keys)
	}
	return n, samplesPerMachine, nil
}

// mergeLocals folds the machine-local blocks into a Result.
func mergeLocals(locals []Local) *Result {
	res := &Result{Blocks: make([][]uint64, len(locals))}
	for id, l := range locals {
		res.Blocks[id] = l.Block
		res.RebalancedKeys += l.Rebalanced
	}
	return res
}

package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/graph"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
	"kmachine/internal/transport"
	"kmachine/internal/triangle"
)

// pagerankL1 is the δ the gate allows between the Monte-Carlo estimate
// (normalised to sum 1) and power iteration, in L1. With 8·log2 n
// tokens per vertex the measured distance falls from 0.046 at n = 100
// to 0.028 at n = 20000; the uniform vector, an estimate that ignores
// the graph, sits at 0.16–0.21.
const pagerankL1 = 0.1

// reference is one typed transport.InMem run of a problem, checked
// against the sequential oracle of its algorithm. Every measured run
// of the same problem must then reproduce its expect bit for bit: the
// substrates share all accounting, so agreement with this run plus the
// oracle's verdict on this run is agreement with the truth.
type reference struct {
	expect
	// SeqMS is the oracle's own single-threaded time where the oracle
	// is the plain baseline of the kernel (pagerank, triangle).
	SeqMS float64
}

func referenceRun(algoName string, prob algo.Problem) (reference, error) {
	prob = withDefaultEdgeP(prob)
	prob.Sharded, prob.Checkpoint, prob.Recorder = false, algo.CheckpointSpec{}, nil
	cfg := core.Config{K: prob.K, Bandwidth: core.DefaultBandwidth(prob.N), Seed: prob.Seed + 2, Transport: transport.InMem}
	var ref reference
	var err error
	switch algoName {
	case "pagerank":
		ref, err = refPageRank(prob, cfg)
	case "triangle":
		ref, err = refTriangle(prob, cfg)
	case "conncomp":
		ref, err = refConnComp(prob, cfg)
	case "dsort":
		ref, err = refDSort(prob, cfg)
	case "routing":
		ref, err = refRouting(prob, cfg)
	default:
		err = fmt.Errorf("no reference for algorithm %q", algoName)
	}
	if err != nil {
		return reference{}, fmt.Errorf("reference %s n=%d seed=%d: %w", algoName, prob.N, prob.Seed, err)
	}
	return ref, nil
}

func withStats(h uint64, st *core.Stats) reference {
	return reference{expect: expect{Hash: h, Rounds: st.Rounds, Words: st.Words, Supersteps: st.Supersteps}}
}

// gnp materialises the problem's graph and partition.
func gnp(prob algo.Problem) (*partition.VertexPartition, error) {
	in, err := algo.GnpInput(prob)
	if err != nil {
		return nil, err
	}
	return in.(*partition.VertexPartition), nil
}

func refPageRank(prob algo.Problem, cfg core.Config) (reference, error) {
	vp, err := gnp(prob)
	if err != nil {
		return reference{}, err
	}
	res, st, err := algo.Run(pagerank.Descriptor(prob.N, pagerank.AlgorithmOne(0.15)), vp, cfg)
	if err != nil {
		return reference{}, err
	}
	h := algo.NewHash64()
	for _, x := range res.Estimate {
		h.Add(math.Float64bits(x))
	}
	for _, c := range res.Psi {
		h.Add(uint64(c))
	}
	ref := withStats(h.Sum(), st)

	t0 := time.Now()
	truth := graph.PowerIterationPageRank(vp.G, graph.PageRankOptions{Eps: 0.15, Tol: 1e-9, MaxIter: 1000})
	ref.SeqMS = ms(time.Since(t0))
	var sum, l1 float64
	for _, e := range res.Estimate {
		sum += e
	}
	for v, e := range res.Estimate {
		l1 += math.Abs(e/sum - truth[v])
	}
	if !(l1 <= pagerankL1) {
		return ref, fmt.Errorf("pagerank estimate is %.4f from power iteration in L1, want <= %v", l1, pagerankL1)
	}
	return ref, nil
}

func refTriangle(prob algo.Problem, cfg core.Config) (reference, error) {
	vp, err := gnp(prob)
	if err != nil {
		return reference{}, err
	}
	res, st, err := algo.Run(triangle.Descriptor(prob.K, triangle.AlgorithmOptions()), vp, cfg)
	if err != nil {
		return reference{}, err
	}
	h := algo.NewHash64()
	h.Add(uint64(res.Count))
	h.Add(res.Checksum)
	for _, c := range res.PerMachine {
		h.Add(uint64(c))
	}
	ref := withStats(h.Sum(), st)

	t0 := time.Now()
	var count int64
	var sum uint64
	vp.G.EnumerateTriangles(func(t graph.Triangle) bool {
		count++
		sum ^= graph.HashTriangle(t)
		return true
	})
	ref.SeqMS = ms(time.Since(t0))
	if res.Count != count || res.Checksum != sum {
		return ref, fmt.Errorf("triangle output %d (checksum %016x), sequential enumeration %d (%016x)", res.Count, res.Checksum, count, sum)
	}
	return ref, nil
}

func refConnComp(prob algo.Problem, cfg core.Config) (reference, error) {
	vp, err := gnp(prob)
	if err != nil {
		return reference{}, err
	}
	res, st, err := algo.Run(conncomp.Descriptor(prob.N), vp, cfg)
	if err != nil {
		return reference{}, err
	}
	h := algo.NewHash64()
	for _, l := range res.Label {
		h.Add(uint64(uint32(l)))
	}
	h.Add(uint64(res.Components))
	h.Add(uint64(res.Phases))
	ref := withStats(h.Sum(), st)

	// Sequential union-find, smaller ID as root: a component's root is
	// its minimum vertex, which is the label the algorithm must output.
	parent := make([]int32, prob.N)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	vp.G.Edges(func(u, v int32) bool {
		if ru, rv := find(u), find(v); ru < rv {
			parent[rv] = ru
		} else {
			parent[ru] = rv
		}
		return true
	})
	components := 0
	for v := range parent {
		root := find(int32(v))
		if root == int32(v) {
			components++
		}
		if res.Label[v] != root {
			return ref, fmt.Errorf("conncomp labels vertex %d with %d, union-find says %d", v, res.Label[v], root)
		}
	}
	if res.Components != components {
		return ref, fmt.Errorf("conncomp reports %d components, union-find %d", res.Components, components)
	}
	return ref, nil
}

func refDSort(prob algo.Problem, cfg core.Config) (reference, error) {
	in := dsort.RandomInput(prob.N, prob.K, prob.Seed, dsort.UniformKeys)
	a, err := dsort.Descriptor(in, 0)
	if err != nil {
		return reference{}, err
	}
	res, st, err := algo.Run(a, algo.EdgelessInput(prob), cfg)
	if err != nil {
		return reference{}, err
	}
	h := algo.NewHash64()
	for _, blk := range res.Blocks {
		h.Add(uint64(len(blk)))
		for _, key := range blk {
			h.Add(key)
		}
	}
	h.Add(uint64(res.RebalancedKeys))
	ref := withStats(h.Sum(), st)

	// Machine i must hold exactly the order statistics
	// [i·n/k, (i+1)·n/k) of the input, sorted.
	all := slices.Concat(in.Keys...)
	slices.Sort(all)
	for i, blk := range res.Blocks {
		lo, hi := i*len(all)/prob.K, (i+1)*len(all)/prob.K
		if !slices.Equal(blk, all[lo:hi]) {
			return ref, fmt.Errorf("dsort machine %d holds %d keys that are not order statistics [%d,%d)", i, len(blk), lo, hi)
		}
	}
	return ref, nil
}

func refRouting(prob algo.Problem, cfg core.Config) (reference, error) {
	perMachine, st, err := algo.Run(routing.Descriptor(prob.N), algo.EdgelessInput(prob), cfg)
	if err != nil {
		return reference{}, err
	}
	h := algo.NewHash64()
	var delivered int64
	for _, d := range perMachine {
		h.Add(uint64(d))
		delivered += d
	}
	if want := int64(prob.K) * int64(prob.N); delivered != want {
		return withStats(h.Sum(), st), fmt.Errorf("routing delivered %d probes, sent %d", delivered, want)
	}
	return withStats(h.Sum(), st), nil
}

// checkOutcome compares one measured run with what it must return.
func checkOutcome(o *algo.Outcome, want expect) error {
	got := expect{Hash: o.Hash, Rounds: o.Stats.Rounds, Words: o.Stats.Words, Supersteps: o.Stats.Supersteps}
	if got != want {
		return fmt.Errorf("run returned %v, want %v", got, want)
	}
	return nil
}

// ms renders a duration, or a nanosecond count of the obs clock, in
// milliseconds.
func ms[T time.Duration | int64](d T) float64 { return float64(d) / 1e6 }

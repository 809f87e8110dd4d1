package pagerank

import (
	"fmt"
	"math"
	"sort"

	"kmachine/internal/algo"
	"kmachine/internal/partition"
)

// Local is one machine's share of a PageRank output: the visit counts
// and estimates of the vertices homed on it, in Locals() order. Dense
// parallel slices, not maps — the in-process Run assembles its Result
// from k of these on the hot path, and every substrate computes them
// with the same scale arithmetic, so the union of the k Local outputs
// is bit-identical to an in-process Result.
type Local struct {
	// Vertices lists this machine's vertices in increasing ID order;
	// Psi[i] and Estimate[i] belong to Vertices[i].
	Vertices []int32
	Psi      []int64
	Estimate []float64
	// Iterations counts the walk iterations run; every machine agrees.
	Iterations int
}

// Output implements algo.Machine: eps·psi(v)/(n·c·log n) per local
// vertex.
func (m *machine) Output() Local {
	locals := m.view.Locals()
	out := Local{
		Vertices:   locals,
		Psi:        make([]int64, len(locals)),
		Estimate:   make([]float64, len(locals)),
		Iterations: m.iter,
	}
	scale := m.opts.Eps / (float64(m.view.N()) * float64(m.opts.Tokens))
	for r, count := range m.psi {
		out.Psi[r] = count
		out.Estimate[r] = float64(count) * scale
	}
	return out
}

// Descriptor returns the algo-layer descriptor of a PageRank run over
// an n-vertex input. Tokens/Iterations defaults are resolved here, so
// every machine of a run — whatever substrate builds it — sees
// identical options; an eps outside (0,1) fails every NewMachine.
func Descriptor(n int, opts Options) algo.Algorithm[Wire, Local, *Result] {
	valid := opts.Eps > 0 && opts.Eps < 1
	if valid {
		opts.ApplyDefaults(n)
	}
	return algo.Algorithm[Wire, Local, *Result]{
		Name:  "pagerank",
		Codec: WireCodec(),
		NewMachine: func(view partition.View) (algo.Machine[Wire, Local], error) {
			if !valid {
				return nil, fmt.Errorf("pagerank: eps=%v out of (0,1)", opts.Eps)
			}
			return newMachine(view, opts), nil
		},
		Merge: func(locals []Local) *Result {
			res := &Result{
				Estimate:          make([]float64, n),
				Psi:               make([]int64, n),
				OutputsPerMachine: make([]int, len(locals)),
				TokensPerVertex:   opts.Tokens,
			}
			for i, l := range locals {
				res.Iterations = max(res.Iterations, l.Iterations)
				res.OutputsPerMachine[i] = len(l.Vertices)
				for j, v := range l.Vertices {
					res.Psi[v] = l.Psi[j]
					res.Estimate[v] = l.Estimate[j]
				}
			}
			return res
		},
	}
}

func init() {
	algo.Register(algo.Spec[Wire, Local, *Result]{
		Name:     "pagerank",
		Doc:      "Monte-Carlo PageRank, the paper's Algorithm 1 (Õ(n/k²) rounds, Thm 4)",
		Protocol: 1, // one walk per superstep, light tokens sent direct (0 relayed them)
		Build: func(prob algo.Problem) (algo.Algorithm[Wire, Local, *Result], partition.Input, error) {
			in, err := algo.GraphInput(prob)
			if err != nil {
				return algo.Algorithm[Wire, Local, *Result]{}, nil, err
			}
			return Descriptor(prob.N, AlgorithmOne(prob.Eps)), in, nil
		},
		Hash: hashResult,
		Summarize: func(r *Result, top int) []string {
			lines := []string{fmt.Sprintf("pagerank: %d iterations, %d tokens/vertex",
				r.Iterations, r.TokensPerVertex)}
			return append(lines, topEstimates(r.Estimate, top, "cluster-wide")...)
		},
		SummarizeLocal: func(l Local, top int) []string {
			return topRanked(l.Vertices, l.Estimate, top, "this machine's")
		},
	})
}

// hashResult is the registry's output hash of a merged result.
func hashResult(r *Result) uint64 {
	h := algo.NewHash64()
	for _, x := range r.Estimate {
		h.Add(math.Float64bits(x))
	}
	for _, c := range r.Psi {
		h.Add(uint64(c))
	}
	return h.Sum()
}

// topEstimates lists the top vertices of a dense estimate vector.
func topEstimates(est []float64, top int, who string) []string {
	ids := make([]int32, len(est))
	for v := range est {
		ids[v] = int32(v)
	}
	return topRanked(ids, est, top, who)
}

// topRanked lists the top vertices of parallel (vertex, estimate)
// slices, ties broken by vertex ID for determinism.
func topRanked(ids []int32, est []float64, top int, who string) []string {
	type ve struct {
		v int32
		e float64
	}
	ranked := make([]ve, len(ids))
	for i, v := range ids {
		ranked[i] = ve{v, est[i]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].e != ranked[j].e {
			return ranked[i].e > ranked[j].e
		}
		return ranked[i].v < ranked[j].v
	})
	if top > len(ranked) {
		top = len(ranked)
	}
	lines := make([]string, 0, top+1)
	lines = append(lines, fmt.Sprintf("%s top %d vertices by PageRank estimate:", who, top))
	for _, r := range ranked[:top] {
		lines = append(lines, fmt.Sprintf("  v%-8d %.6f", r.v, r.e))
	}
	return lines
}

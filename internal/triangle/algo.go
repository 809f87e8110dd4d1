package triangle

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// Local is one machine's share of an enumeration output (triangles or
// open triads; the baseline and color-partition machines share it).
type Local struct {
	// Count and Checksum summarise the outputs of this machine.
	Count    int64
	Checksum uint64
	// Triangles / Triads are the materialised outputs (Options.Collect).
	Triangles []graph.Triangle
	Triads    []graph.Triad
}

// Output implements algo.Machine.
func (m *triMachine) Output() Local {
	return Local{Count: m.count, Checksum: m.checksum, Triangles: m.out, Triads: m.triads}
}

// Output implements algo.Machine for the machines that output
// triangles only (the baseline and centralized strategies).
func (t *triangleTally) Output() Local {
	return Local{Count: t.count, Checksum: t.checksum, Triangles: t.out}
}

// mergeEnum folds machine-local enumeration shares into a Result for a
// run with c color classes.
func mergeEnum(c int) func(locals []Local) *Result {
	return func(locals []Local) *Result {
		res := &Result{Colors: c, PerMachine: make([]int64, len(locals))}
		for id, l := range locals {
			res.Count += l.Count
			res.Checksum ^= l.Checksum
			res.PerMachine[id] = l.Count
			res.Triangles = append(res.Triangles, l.Triangles...)
			res.Triads = append(res.Triads, l.Triads...)
		}
		return res
	}
}

// Descriptor returns the algo-layer descriptor of the paper's §3.2
// color-partition enumeration on a k-machine cluster.
func Descriptor(k int, opts Options) algo.Algorithm[Wire, Local, *Result] {
	c := Colors(k)
	targets := pairTargets(c, 3)
	return algo.Algorithm[Wire, Local, *Result]{
		Name:  "triangle",
		Codec: WireCodec(),
		NewMachine: func(view partition.View) (algo.Machine[Wire, Local], error) {
			m := &triMachine{colorRouter: newColorRouter(view, opts, c, targets), triangleTally: triangleTally{collect: opts.Collect}}
			m.walk = m.enumerate
			return m, nil
		},
		Merge: mergeEnum(c),
	}
}

func init() {
	algo.Register(algo.Spec[Wire, Local, *Result]{
		Name: "triangle",
		Doc:  "color-partition triangle enumeration (Õ(m/k^{5/3}+n/k^{4/3}) rounds, Thm 5)",
		Build: func(prob algo.Problem) (algo.Algorithm[Wire, Local, *Result], partition.Input, error) {
			in, err := algo.GraphInput(prob)
			if err != nil {
				return algo.Algorithm[Wire, Local, *Result]{}, nil, err
			}
			return Descriptor(prob.K, AlgorithmOptions()), in, nil
		},
		Hash: func(r *Result) uint64 {
			h := algo.NewHash64()
			h.Add(uint64(r.Count))
			h.Add(r.Checksum)
			for _, c := range r.PerMachine {
				h.Add(uint64(c))
			}
			return h.Sum()
		},
		Summarize: func(r *Result, top int) []string {
			var maxOut int64
			for _, c := range r.PerMachine {
				if c > maxOut {
					maxOut = c
				}
			}
			return []string{fmt.Sprintf("triangle: %d triangles (checksum %016x), colors=%d, max %d outputs on one machine",
				r.Count, r.Checksum, r.Colors, maxOut)}
		},
		SummarizeLocal: func(l Local, top int) []string {
			return []string{fmt.Sprintf("triangle: this machine output %d triangles (checksum %016x)",
				l.Count, l.Checksum)}
		},
	})
}

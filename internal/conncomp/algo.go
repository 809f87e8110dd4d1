package conncomp

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/partition"
)

// Local is one machine's share of a connectivity output: the converged
// labels of its locally homed vertices plus its phase count.
type Local struct {
	// Vertices are the locally homed vertices, ascending (the view's
	// Locals(), aliased).
	Vertices []int32
	// Label[i] is the minimum vertex ID of Vertices[i]'s component.
	Label []int32
	// Phases is one more than the last superstep in which an arrived
	// label lowered one of this machine's labels, 1 if none ever did;
	// the most over machines is Result.Phases.
	Phases int
}

// Output implements algo.Machine.
func (m *ccMachine) Output() Local {
	return Local{Vertices: m.locals, Label: m.label, Phases: m.phase}
}

// Descriptor returns the algo-layer descriptor of a connectivity run
// over an n-vertex input.
func Descriptor(n int) algo.Algorithm[Wire, Local, *Result] {
	return algo.Algorithm[Wire, Local, *Result]{
		Name:  "conncomp",
		Codec: WireCodec(),
		NewMachine: func(view partition.View) (algo.Machine[Wire, Local], error) {
			return newCCMachine(view), nil
		},
		Merge: func(locals []Local) *Result {
			res := &Result{Label: make([]int32, n)}
			for _, l := range locals {
				res.Phases = max(res.Phases, l.Phases)
				for i, v := range l.Vertices {
					res.Label[v] = l.Label[i]
				}
			}
			// A label is its component's minimum ID, so each component
			// has exactly one vertex labelled with itself.
			for v, lbl := range res.Label {
				if lbl == int32(v) {
					res.Components++
				}
			}
			return res
		},
	}
}

func init() {
	algo.Register(algo.Spec[Wire, Local, *Result]{
		Name:     "conncomp",
		Doc:      "connected components by min-label propagation (§1.3 cookbook, Ω̃(n/k²) via GLBT)",
		Protocol: 2, // a label sent when it falls, halt on quiescence (1: two-superstep phases with change flags; 0: labels relayed)
		Build: func(prob algo.Problem) (algo.Algorithm[Wire, Local, *Result], partition.Input, error) {
			in, err := algo.GraphInput(prob)
			if err != nil {
				return algo.Algorithm[Wire, Local, *Result]{}, nil, err
			}
			return Descriptor(prob.N), in, nil
		},
		Hash: func(r *Result) uint64 {
			h := algo.NewHash64()
			for _, l := range r.Label {
				h.Add(uint64(uint32(l)))
			}
			h.Add(uint64(r.Components))
			h.Add(uint64(r.Phases))
			return h.Sum()
		},
		Summarize: func(r *Result, top int) []string {
			return []string{fmt.Sprintf("conncomp: %d components over %d vertices in %d phases",
				r.Components, len(r.Label), r.Phases)}
		},
		SummarizeLocal: func(l Local, top int) []string {
			distinct := map[int32]bool{}
			for _, lbl := range l.Label {
				distinct[lbl] = true
			}
			return []string{fmt.Sprintf("conncomp: this machine labels %d vertices with %d distinct component labels (%d phases)",
				len(l.Label), len(distinct), l.Phases)}
		},
	})
}

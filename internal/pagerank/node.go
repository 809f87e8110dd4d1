package pagerank

import (
	"fmt"

	"kmachine/internal/core"
	"kmachine/internal/partition"
)

// NodeMachine is one machine of a distributed PageRank computation,
// packaged behind the algo.Machine contract: Step drives the token
// walk and Output (algo.go) extracts the machine's share of the
// result. Every substrate builds it the same way — the in-process
// driver (algo.Run via Descriptor), the standalone node runtime
// (cmd/kmnode), and the registry runners — which is what makes their
// outputs bit-identical.
type NodeMachine struct {
	m    *machine
	n    int
	opts Options
}

// NewNodeMachine builds machine view.Self()'s state. opts.Eps must be
// set; Tokens/Iterations defaults are applied here, so every node of a
// run resolves to identical options as long as the inputs agree.
func NewNodeMachine(view partition.View, opts Options) (*NodeMachine, error) {
	if opts.Eps <= 0 || opts.Eps >= 1 {
		return nil, fmt.Errorf("pagerank: eps=%v out of (0,1)", opts.Eps)
	}
	opts.ApplyDefaults(view.N())
	return &NodeMachine{m: newMachine(view, opts), n: view.N(), opts: opts}, nil
}

// Step implements core.Machine.
func (nm *NodeMachine) Step(ctx *core.StepContext, inbox []core.Envelope[Wire]) ([]core.Envelope[Wire], bool) {
	return nm.m.Step(ctx, inbox)
}

// LocalEstimates returns the PageRank estimates this machine outputs —
// the same eps·psi(v)/(n·c·log n) arithmetic Run applies, so a
// standalone cluster's union of LocalEstimates is bit-identical to an
// in-process Result.Estimate.
func (nm *NodeMachine) LocalEstimates() map[int32]float64 {
	scale := nm.opts.Eps / (float64(nm.n) * float64(nm.opts.Tokens))
	locals := nm.m.view.Locals()
	out := make(map[int32]float64, len(locals))
	for r, v := range locals {
		out[v] = float64(nm.m.psi[r]) * scale
	}
	return out
}

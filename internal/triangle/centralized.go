package triangle

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// Centralized strategy — the foil in the paper's Corollary 2 discussion:
// "this rules out algorithms that aggregate all input information at a
// single machine (which would only require O(m) messages in total)".
// Every machine ships its designated edges straight to machine 0, which
// enumerates everything locally. Total messages are exactly m (optimal),
// but the collector's k-1 incoming links serialise the transfer at
// Θ(m/(k·B)) rounds — a factor ~k^{2/3} above the round-optimal
// Õ(m/k^{5/3}) algorithm. Together with RunBaseline and Run this gives
// the three points of the message/round tradeoff curve that Corollary 2
// describes.

type centralMachine struct {
	view  partition.View
	edges [][2]int32
	triangleTally
}

func (m *centralMachine) Step(ctx *core.StepContext, inbox []core.Envelope[tmsg]) ([]core.Envelope[tmsg], bool) {
	for _, e := range inbox {
		m.edges = append(m.edges, [2]int32{e.Msg.U, e.Msg.V})
	}
	switch ctx.Superstep {
	case 0:
		var out []core.Envelope[tmsg]
		for _, u := range m.view.Locals() {
			for _, v := range m.view.OutAdj(u) {
				if v < u {
					continue // each edge shipped once, by the min endpoint's home
				}
				out = append(out, core.Envelope[tmsg]{
					To:    0,
					Words: 2,
					Msg:   tmsg{Kind: kindEdgeFinal, U: u, V: v},
				})
			}
		}
		return out, false
	default:
		if m.view.Self() == 0 {
			g := graph.FromEdges(m.view.N(), false, m.edges)
			g.EnumerateTriangles(func(t graph.Triangle) bool {
				m.emit(t)
				return true
			})
		}
		return nil, true
	}
}

// RunCentralized aggregates the whole graph at machine 0 and enumerates
// there. It exists to measure the Corollary 2 tradeoff, not to be used.
func RunCentralized(p *partition.VertexPartition, cfg core.Config) (*Result, error) {
	if p.G.Directed() {
		return nil, fmt.Errorf("triangle: enumeration needs an undirected graph")
	}
	res, stats, err := algo.Run(algo.Algorithm[Wire, Local, *Result]{
		Name:  "triangle",
		Codec: WireCodec(),
		NewMachine: func(view partition.View) (algo.Machine[Wire, Local], error) {
			return &centralMachine{view: view}, nil
		},
		Merge: mergeEnum(1),
	}, p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

package triangle

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/partition"
)

// Conversion-style baseline (Klauck et al. [33]): the congested-clique
// TriPartition algorithm of Dolev et al. [21] uses n^{1/3} color classes
// and assigns each of the n ordered color triples to a distinct *vertex*
// ("deputy"). Simulating it in the k-machine model via the Conversion
// Theorem means every deputy receives its edge copies as separate
// node-addressed messages through its home machine — no machine-level
// aggregation, no proxies. The total volume is Θ(m·n^{1/3}) words, which
// the k² links drain in Õ(m·n^{1/3}/k²) rounds — Õ(n^{7/3}/k²) on dense
// graphs, the bound the paper improves to Õ(m/k^{5/3} + n/k^{4/3}).

type bmsg struct {
	Deputy int32
	U, V   int32
}

type baselineMachine struct {
	view partition.View
	opts Options
	c    int // n^{1/3} color classes

	// perDeputy collects edge lists for the deputies homed here.
	perDeputy map[int32][][2]int32
	targets   [][]core.MachineID // pairTargets(c, 3), read as deputy vertex IDs
	triangleTally
}

func (m *baselineMachine) Step(ctx *core.StepContext, inbox []core.Envelope[bmsg]) ([]core.Envelope[bmsg], bool) {
	for _, e := range inbox {
		m.perDeputy[e.Msg.Deputy] = append(m.perDeputy[e.Msg.Deputy], [2]int32{e.Msg.U, e.Msg.V})
	}
	switch ctx.Superstep {
	case 0:
		var out []core.Envelope[bmsg]
		for _, u := range m.view.Locals() {
			for _, v := range m.view.OutAdj(u) {
				if v < u {
					continue // min-ID endpoint's home ships the edge
				}
				a := colorOf(colorSeed, u, m.c)
				b := colorOf(colorSeed, v, m.c)
				for _, dep := range m.targets[a*m.c+b] {
					deputy := int32(dep) // deputy vertex ID < c³ <= n
					out = append(out, core.Envelope[bmsg]{
						To:    m.view.HomeOf(deputy),
						Words: 3, // deputy + two endpoints
						Msg:   bmsg{Deputy: deputy, U: u, V: v},
					})
				}
			}
		}
		return out, false
	default:
		// Every edge sent in superstep 0 has arrived by superstep 1. The
		// deputies homed here are local vertices; walking them in ID
		// order (not map order) keeps the collected output reproducible.
		for _, deputy := range m.view.Locals() {
			c1, c2, c3, ok := tripleOf(core.MachineID(deputy), m.c)
			if edges := m.perDeputy[deputy]; ok && len(edges) > 0 {
				newEdgeIndex(edges, false, colorSeed, m.c).triangles(c1, c2, c3, m.emit)
			}
		}
		return nil, true
	}
}

// RunBaseline executes the conversion-style baseline through the
// generic internal/algo driver. cfg.K must equal p.K; the graph must be
// undirected.
func RunBaseline(p *partition.VertexPartition, cfg core.Config, opts Options) (*Result, error) {
	if p.G.Directed() {
		return nil, fmt.Errorf("triangle: enumeration needs an undirected graph")
	}
	c := Colors(p.G.N()) // n^{1/3} classes: the congested-clique granularity
	targets := pairTargets(c, 3)
	res, stats, err := algo.Run(algo.Algorithm[BaselineWire, Local, *Result]{
		Name:  "triangle",
		Codec: BaselineWireCodec(),
		NewMachine: func(view partition.View) (algo.Machine[BaselineWire, Local], error) {
			return &baselineMachine{view: view, opts: opts, c: c, perDeputy: make(map[int32][][2]int32),
				targets: targets, triangleTally: triangleTally{collect: opts.Collect}}, nil
		},
		Merge: mergeEnum(c),
	}, p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

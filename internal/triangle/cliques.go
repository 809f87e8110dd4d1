package triangle

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// Distributed 4-clique enumeration — the §1.2 generalization ("our
// techniques and results can be generalized to the enumeration of other
// small subgraphs such as cycles and cliques").
//
// The scheme lifts the triangle machinery one dimension: vertices are
// hashed into c = ⌊k^{1/4}⌋ color classes, each of the c⁴ ordered color
// quadruples is assigned to a machine, and the machine whose quadruple
// equals the ID-sorted color sequence of a clique outputs it — exactly
// once across the cluster. An edge u < v colored (a, b) must reach
// every quadruple holding a at some position before b, i.e.
// 6c² − 8c + 3 = Θ(k^{1/2}) copies, so total volume is Θ(m·√k) and the
// proxy-routed distribution completes in Õ(m/k^{3/2}) rounds — the
// K_s-generalised analogue of Theorem 5's Õ(m/k^{5/3}) (volume
// m·k^{(s-2)/s} over k² links).

// Colors4 returns the number of color classes for 4-clique runs: the
// largest c with c⁴ <= k.
func Colors4(k int) int {
	c := 1
	for (c+1)*(c+1)*(c+1)*(c+1) <= k {
		c++
	}
	return c
}

// quadOf returns machine m's ordered color quadruple (ok=false for
// machines beyond c⁴, which only serve as proxies).
func quadOf(m core.MachineID, c int) (q [4]int32, ok bool) {
	if int(m) >= c*c*c*c {
		return q, false
	}
	i, b := int32(m), int32(c)
	q[0], q[1], q[2], q[3] = i/(b*b*b), (i/(b*b))%b, (i/b)%b, i%b
	return q, true
}

type cliqueMachine struct {
	colorRouter

	count    int64
	checksum uint64
	out      []graph.Clique4
}

// enumerate lists, in lexicographic order, the 4-cliques whose ID-sorted
// color sequence matches this machine's quadruple.
func (m *cliqueMachine) enumerate() {
	q, ok := quadOf(m.view.Self(), m.c)
	if !ok {
		return
	}
	ix := newEdgeIndex(m.edges, false, colorSeed, m.c)
	for a := range ix.ids {
		if ix.color[a] != q[0] {
			continue
		}
		nbrs := ix.row(int32(a))
		for i, b := range nbrs {
			if ix.color[b] != q[1] {
				continue
			}
			// c-candidates: common neighbours of a and b above b.
			for j, cv := range nbrs[i+1:] {
				if ix.color[cv] != q[2] || !ix.has(b, cv) {
					continue
				}
				for _, d := range nbrs[i+j+2:] {
					if ix.color[d] != q[3] || !ix.has(b, d) || !ix.has(cv, d) {
						continue
					}
					cl := graph.Clique4{A: ix.ids[a], B: ix.ids[b], C: ix.ids[cv], D: ix.ids[d]}
					m.count++
					m.checksum ^= graph.HashClique4(cl)
					if m.opts.Collect {
						m.out = append(m.out, cl)
					}
				}
			}
		}
	}
}

// Clique4Result reports a distributed 4-clique enumeration.
type Clique4Result struct {
	Count      int64
	Checksum   uint64
	PerMachine []int64
	Cliques    []graph.Clique4
	Colors     int
	Stats      *core.Stats
}

// RunCliques4 enumerates all 4-cliques of the partitioned graph; every
// clique is output by exactly one machine.
func RunCliques4(p *partition.VertexPartition, cfg core.Config, opts Options) (*Clique4Result, error) {
	if p.G.Directed() {
		return nil, fmt.Errorf("triangle: clique enumeration needs an undirected graph")
	}
	c := Colors4(cfg.K)
	targets := pairTargets(c, 4)
	res, stats, err := algo.Run(algo.Algorithm[Wire, local4, *Clique4Result]{
		Name:  "triangle",
		Codec: WireCodec(),
		NewMachine: func(view partition.View) (algo.Machine[Wire, local4], error) {
			m := &cliqueMachine{colorRouter: newColorRouter(view, opts, c, targets)}
			m.walk = m.enumerate
			return m, nil
		},
		Merge: func(locals []local4) *Clique4Result {
			res := &Clique4Result{Colors: c, PerMachine: make([]int64, len(locals))}
			for id, l := range locals {
				res.Count += l.count
				res.Checksum ^= l.checksum
				res.PerMachine[id] = l.count
				res.Cliques = append(res.Cliques, l.cliques...)
			}
			return res
		},
	}, p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// local4 is one machine's share of a 4-clique enumeration.
type local4 struct {
	count    int64
	checksum uint64
	cliques  []graph.Clique4
}

// Output implements algo.Machine.
func (m *cliqueMachine) Output() local4 {
	return local4{count: m.count, checksum: m.checksum, cliques: m.out}
}

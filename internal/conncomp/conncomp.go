// Package conncomp implements connected components in the k-machine
// model — the §1.3 cookbook example where the General Lower Bound
// Theorem directly yields Ω̃(n/k²) (matched by the MST/connectivity
// algorithms of Pandurangan et al. [51]).
//
// The algorithm here is synchronous minimum-label propagation with local
// collapsing: every machine first merges its local vertices with a
// union-find over the edges it already holds (free local computation),
// then, every superstep, applies the labels it received, collapses
// locally, and sends each ghost's aggregated minimum label straight to
// the ghost's home — only when it fell below the label last sent for
// that ghost. The random vertex partition spreads the labels over the
// links as evenly as Lemma 13's relay would (DESIGN.md). A machine that
// sends nothing votes done, and the run halts on the engine's
// quiescence: every machine done, no envelope in flight. Labels converge
// to the minimum vertex ID of each component within O(supergraph
// diameter) supersteps — O(log n) whp on the G(n,p) families used in the
// experiments.
//
// Substitution note (DESIGN.md): the paper's reference point [51]
// achieves Õ(n/k²) deterministically in the phase count via graph
// sketches; label propagation keeps the same per-phase communication
// profile (the quantity the GLBT bounds) with a simpler, fully testable
// mechanism.
package conncomp

import (
	"math"
	"math/bits"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// cmsg is a candidate minimum label for vertex V, sent to V's home.
type cmsg struct {
	V     int32
	Label int32
}

type ccMachine struct {
	view   partition.View
	locals []int32 // view.Locals(); a vertex's row is its index here
	label  []int32 // label[r] is locals[r]'s current label
	class  []int32 // class[r] is the first row of r's local union-find class

	// Ghost table: the distinct non-local neighbours, ascending, and the
	// rows adjacent to ghost g, ghostRows[ghostOffs[g]:ghostOffs[g+1]].
	ghosts, ghostOffs, ghostRows []int32
	sent                         []int32 // sent[g]: the last label sent for ghost g, MaxInt32 before any

	phase int // 1 + the last superstep in which an arrived label lowered one of ours

	buckets [][]core.Envelope[cmsg] // [j]: envelopes to machine j, recycled
}

// newCCMachine ranks the machine's adjacency once, so that no phase
// looks at it again: local–local arcs feed a union-find over rows that
// is flattened into class, and cut arcs are packed as ghost<<32|row and
// radix-sorted by ghost (stable, so rows stay ascending) into the ghost
// table. Every table is sized from a count taken before it fills: each
// link bucket to its ghosts' labels, all carved from one slab.
func newCCMachine(view partition.View) *ccMachine {
	locals := view.Locals()
	m := &ccMachine{
		view:    view,
		locals:  locals,
		phase:   1,
		label:   make([]int32, len(locals)),
		class:   make([]int32, len(locals)),
		buckets: make([][]core.Envelope[cmsg], view.K()),
	}

	// Local union-find over edges with both endpoints local (free local
	// computation collapses each machine-local component). A root is its
	// class's lowest row, so every parent pointer points down and one
	// ascending pass flattens the forest.
	parent := m.class
	for r := range parent {
		parent[r] = int32(r)
	}
	find := func(r int32) int32 {
		for parent[r] != r {
			parent[r] = parent[parent[r]]
			r = parent[r]
		}
		return r
	}
	cut := 0
	for _, v := range locals {
		for _, w := range view.OutAdj(v) {
			if !view.IsLocal(w) {
				cut++
			}
		}
	}
	keys := make([]uint64, 0, cut)
	var maxGhost int32
	for r, v := range locals {
		for _, w := range view.OutAdj(v) {
			if !view.IsLocal(w) {
				keys = append(keys, uint64(w)<<32|uint64(r))
				maxGhost = max(maxGhost, w)
			} else if a, b := find(int32(r)), find(view.Row(w)); a != b {
				parent[max(a, b)] = min(a, b)
			}
		}
	}
	for r := range parent {
		parent[r] = parent[parent[r]]
		m.label[r] = locals[parent[r]]
	}

	keys, _ = graph.RadixSort(keys, make([]uint64, len(keys)), 32, (bits.Len32(uint32(maxGhost))+7)/8)
	distinct := 0
	for p := range keys {
		if p == 0 || keys[p]>>32 != keys[p-1]>>32 {
			distinct++
		}
	}
	m.ghosts = make([]int32, 0, distinct)
	m.ghostOffs = make([]int32, 0, distinct+1)
	m.ghostRows = make([]int32, len(keys))
	for p, key := range keys {
		if w := int32(key >> 32); len(m.ghosts) == 0 || m.ghosts[len(m.ghosts)-1] != w {
			m.ghosts = append(m.ghosts, w)
			m.ghostOffs = append(m.ghostOffs, int32(p))
		}
		m.ghostRows[p] = int32(uint32(key))
	}
	m.ghostOffs = append(m.ghostOffs, int32(len(keys)))
	m.sent = make([]int32, distinct)
	for g := range m.sent {
		m.sent[g] = math.MaxInt32
	}
	size := make([]int, view.K())
	for _, w := range m.ghosts {
		size[view.HomeOf(w)]++
	}
	slab := make([]core.Envelope[cmsg], distinct)
	off := 0
	for j, c := range size {
		m.buckets[j] = slab[off : off : off+c]
		off += c
	}
	return m
}

// relax pushes the minimum label of every local union-find class to all
// of its members (free local computation). A class's first row comes
// before its other rows, so the first pass can gather the minimum there
// and the second spread it.
func (m *ccMachine) relax() {
	for r, c := range m.class {
		m.label[c] = min(m.label[c], m.label[r])
	}
	for r, c := range m.class {
		m.label[r] = m.label[c]
	}
}

// Step applies the arrived labels, collapses locally, and sends each
// ghost's minimum label — the minimum over the ghost's neighbours — to
// the ghost's home, in ascending ghost order, if it fell below the label
// last sent for it. A machine that sends nothing votes done; a label
// that arrives later wakes it.
func (m *ccMachine) Step(ctx *core.StepContext, inbox []core.Envelope[cmsg]) ([]core.Envelope[cmsg], bool) {
	for i := range inbox {
		d := &inbox[i].Msg
		if r := m.view.Row(d.V); d.Label < m.label[r] {
			m.label[r] = d.Label
			m.phase = ctx.Superstep + 1
		}
	}
	m.relax()

	buckets := m.buckets
	for j := range buckets {
		buckets[j] = buckets[j][:0]
	}
	quiet := true
	for g, w := range m.ghosts {
		l := int32(math.MaxInt32)
		for _, r := range m.ghostRows[m.ghostOffs[g]:m.ghostOffs[g+1]] {
			l = min(l, m.label[r])
		}
		if l >= m.sent[g] {
			continue
		}
		m.sent[g] = l
		j := m.view.HomeOf(w)
		buckets[j] = append(buckets[j], core.Envelope[cmsg]{To: j, Words: 2, Msg: cmsg{V: w, Label: l}})
		quiet = false
	}
	if quiet {
		return nil, true
	}
	return core.EmitBuckets(ctx, buckets), false
}

// Result reports a connected-components run.
type Result struct {
	// Label[v] is the minimum vertex ID of v's component.
	Label []int32
	// Components is the number of distinct labels.
	Components int
	// Phases is the propagation length: one more than the last
	// superstep in which any label fell, 1 if none ever did.
	Phases int
	// Stats is the communication profile.
	Stats *core.Stats
}

// Run computes connected components over the partitioned graph,
// routing through the generic internal/algo driver.
func Run(p *partition.VertexPartition, cfg core.Config) (*Result, error) {
	res, stats, err := algo.Run(Descriptor(p.G.N()), p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// Package conncomp implements connected components in the k-machine
// model — the §1.3 cookbook example where the General Lower Bound
// Theorem directly yields Ω̃(n/k²) (matched by the MST/connectivity
// algorithms of Pandurangan et al. [51]).
//
// The algorithm here is synchronous minimum-label propagation with local
// collapsing: every machine first merges its local vertices with a
// union-find over the edges it already holds (free local computation),
// then repeatedly exchanges per-destination-aggregated minimum labels
// across cut edges, each straight to its vertex's home: the random
// vertex partition spreads them over the links as evenly as Lemma 13's
// relay would (DESIGN.md). A phase is two supersteps: labels, then a
// local collapse and a change flag to every peer. Labels converge to the
// minimum vertex ID of each component within O(supergraph diameter)
// phases — O(log n) whp on the G(n,p) families used in the experiments.
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

const (
	kindLabel = iota // candidate minimum label for a destination vertex
	kindFlag         // "my labels changed this phase" broadcast
)

// phaseLen is the number of supersteps in a phase: labels out, then
// relax and the change flags out.
const phaseLen = 2

type cmsg struct {
	Kind    uint8
	V       int32
	Label   int32
	Changed bool
}

type ccMachine struct {
	view   partition.View
	locals []int32 // view.Locals(); a vertex's row is its index here
	label  []int32 // label[r] is locals[r]'s current label
	class  []int32 // class[r] is the first row of r's local union-find class

	// Ghost table: the distinct non-local neighbours, ascending, and the
	// rows adjacent to ghost g, ghostRows[ghostOffs[g]:ghostOffs[g+1]].
	ghosts, ghostOffs, ghostRows []int32

	phase        int
	anyChange    bool // set when a label changed in the last phase
	flagsChanged bool // OR of all machines' change flags

	buckets [][]core.Envelope[cmsg] // [j]: envelopes to machine j, recycled
}

// newCCMachine ranks the machine's adjacency once, so that no phase
// looks at it again: local–local arcs feed a union-find over rows that
// is flattened into class, and cut arcs are packed as ghost<<32|row and
// radix-sorted by ghost (stable, so rows stay ascending) into the ghost
// table. Every table is sized from a count taken before it fills: each
// link bucket to its ghosts' labels plus one change flag, all carved
// from one slab.
func newCCMachine(view partition.View) *ccMachine {
	locals := view.Locals()
	m := &ccMachine{
		view:    view,
		locals:  locals,
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
	size := make([]int, view.K())
	for _, w := range m.ghosts {
		size[view.HomeOf(w)]++
	}
	slab := make([]core.Envelope[cmsg], distinct+view.K()-1)
	off := 0
	for j, c := range size {
		if core.MachineID(j) != view.Self() {
			c++ // the change flag
		}
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
		if l := m.label[r]; l < m.label[c] {
			m.label[c] = l
			m.anyChange = true
		}
	}
	for r, c := range m.class {
		if m.label[r] != m.label[c] {
			m.label[r] = m.label[c]
			m.anyChange = true
		}
	}
}

func (m *ccMachine) Step(ctx *core.StepContext, inbox []core.Envelope[cmsg]) ([]core.Envelope[cmsg], bool) {
	buckets := m.buckets
	for j := range buckets {
		buckets[j] = buckets[j][:0]
	}
	for i := range inbox {
		switch d := &inbox[i].Msg; d.Kind {
		case kindLabel:
			if r := m.view.Row(d.V); d.Label < m.label[r] {
				m.label[r] = d.Label
				m.anyChange = true
			}
		case kindFlag:
			if d.Changed {
				m.flagsChanged = true
			}
		}
	}

	if ctx.Superstep%phaseLen == 0 {
		// Phase start: stop if the previous phase changed nothing
		// anywhere (flags from every other machine plus our own state).
		if ctx.Superstep > 0 {
			done := !m.flagsChanged && !m.anyChange
			m.flagsChanged = false
			if done {
				return nil, true
			}
		}
		m.anyChange = false
		m.phase++
		// Send per-destination-aggregated minimum labels over cut edges:
		// to each ghost's home, in ascending ghost order, the minimum of
		// the ghost's neighbours.
		for g, w := range m.ghosts {
			l := int32(math.MaxInt32)
			for _, r := range m.ghostRows[m.ghostOffs[g]:m.ghostOffs[g+1]] {
				l = min(l, m.label[r])
			}
			j := m.view.HomeOf(w)
			buckets[j] = append(buckets[j], core.Envelope[cmsg]{To: j, Words: 2,
				Msg: cmsg{Kind: kindLabel, V: w, Label: l}})
		}
	} else {
		// Labels have arrived (processed above); collapse locally and
		// broadcast the change flag.
		m.relax()
		flag := cmsg{Kind: kindFlag, Changed: m.anyChange}
		for j := range buckets {
			if to := core.MachineID(j); to != m.view.Self() {
				buckets[j] = append(buckets[j], core.Envelope[cmsg]{To: to, Words: 1, Msg: flag})
			}
		}
	}
	return core.EmitBuckets(ctx, m.buckets), false
}

// Result reports a connected-components run.
type Result struct {
	// Label[v] is the minimum vertex ID of v's component.
	Label []int32
	// Components is the number of distinct labels.
	Components int
	// Phases is the number of label-propagation phases executed.
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

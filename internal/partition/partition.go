// Package partition implements the input partitioning schemes of the
// k-machine model (paper §1.1):
//
//   - the random vertex partition (RVP): every vertex, with its incident
//     edges, is assigned to a uniformly random machine. As in real
//     systems (Pregel, Giraph) the assignment is realised by hashing, so
//     any machine that knows a vertex ID also knows its home machine
//     without communication;
//   - the random edge partition (REP, footnote 3): every edge is assigned
//     to a uniformly random machine;
//   - the REP -> RVP conversion, run as an actual k-machine computation so
//     its Õ(m/k² + n/k) cost is measured, not assumed.
//
// A View is one machine's CSR shard (LocalView, local.go): the
// adjacency rows of the machine's own vertices — the paper's input
// model, where machine m stores Õ((n+m)/k) words, with no global graph
// object behind it — plus the public home hash. Its accessors panic when
// an algorithm touches a vertex that is not local, which keeps the
// simulated algorithms honest about what a machine can see: the home
// machine knows the IDs of its vertices' neighbours and those
// neighbours' home machines, and nothing else. A generated or ingested
// input builds its shards from the source's edge stream (ShardedInput);
// a VertexPartition of a caller's graph builds them from the graph's
// edges, the same way.
package partition

import (
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/rng"
)

// Home returns the home machine of vertex v under the hash-based RVP
// with the given seed. It is a pure function: every machine can evaluate
// it locally for any vertex ID.
func Home(seed uint64, v int32, k int) core.MachineID {
	return core.MachineID(rng.Mix(seed^(uint64(uint32(v))+0x517cc1b727220a95)) % uint64(k))
}

// VertexPartition is a vertex partition of a caller-supplied graph: the
// hashed RVP (NewRVP) or the congested clique's identity (NewIdentity).
// Its machines' views are CSR shards built from G's edges.
type VertexPartition struct {
	G    *graph.Graph
	K    int
	Seed uint64

	spec   Spec
	locals [][]int32
}

// NewRVP partitions g across k machines by hashing vertex IDs with seed.
func NewRVP(g *graph.Graph, k int, seed uint64) *VertexPartition {
	if k < 2 {
		panic("partition: need k >= 2")
	}
	return newVertexPartition(g, Spec{N: g.N(), K: k, Seed: seed})
}

// NewIdentity builds the congested-clique partition (paper §2.4,
// Corollary 1): k = n machines and vertex v lives on machine v. It is a
// VertexPartition like any other, so every k-machine algorithm runs
// unchanged in the congested clique.
func NewIdentity(g *graph.Graph) *VertexPartition {
	n := g.N()
	if n < 2 {
		panic("partition: identity partition needs n >= 2")
	}
	return newVertexPartition(g, Spec{N: n, K: n, identity: true})
}

func newVertexPartition(g *graph.Graph, spec Spec) *VertexPartition {
	p := &VertexPartition{G: g, K: spec.K, Seed: spec.Seed, spec: spec, locals: make([][]int32, spec.K)}
	for m, x := range spec.localsOf(AllMachines(spec.K)) {
		p.locals[m] = x.locals
	}
	return p
}

// Home returns the home machine of v.
func (p *VertexPartition) Home(v int32) core.MachineID { return p.spec.HomeOf(v) }

// Locals returns the vertices homed at machine m, in increasing order.
func (p *VertexPartition) Locals(m core.MachineID) []int32 { return p.locals[m] }

// Balance returns the minimum and maximum number of vertices per machine
// (the RVP guarantees Θ̃(n/k) per machine whp).
func (p *VertexPartition) Balance() (min, max int) {
	min = p.G.N() + 1
	for _, l := range p.locals {
		if len(l) < min {
			min = len(l)
		}
		if len(l) > max {
			max = len(l)
		}
	}
	if min > p.G.N() {
		min = 0
	}
	return
}

// View is the information one machine legitimately holds under the RVP:
// its own shard, plus the public knowledge of the model (n, k, and the
// hash-computable home of any vertex ID).
type View = *LocalView

// Input is a partitioned problem input as the algorithm driver sees it:
// it hands every machine its View, building the CSR shards of the
// machines a process hosts in one pass over the source — a generator's
// stream or a file (ShardedInput), or a caller's graph
// (*VertexPartition) — so a process hosting one machine materialises
// only that machine's Õ((n+m)/k) share.
type Input interface {
	// NumMachines returns k.
	NumMachines() int
	// MachineViews returns the local windows of the machines this
	// process hosts, in the order given. This is where the shards are
	// generated or ingested — once for the whole set — so it can fail.
	MachineViews(hosted []core.MachineID) ([]View, error)
	// MachineView is MachineViews for a set of one.
	MachineView(m core.MachineID) (View, error)
}

// shards builds the CSR shards of the hosted machines from one replay of
// G's edges.
func (p *VertexPartition) shards(hosted []core.MachineID) []*LocalView {
	b := NewLocalBuilder(p.spec, hosted, p.G.Directed())
	b.Replay(func(emit func(u, v int32)) {
		p.G.Edges(func(u, v int32) bool {
			emit(u, v)
			return true
		})
	})
	return b.Build()
}

// View returns machine m's shard of G.
func (p *VertexPartition) View(m core.MachineID) *LocalView {
	return p.shards([]core.MachineID{m})[0]
}

// NumMachines implements Input.
func (p *VertexPartition) NumMachines() int { return p.K }

// MachineView implements Input.
func (p *VertexPartition) MachineView(m core.MachineID) (View, error) {
	return p.View(m), nil
}

// MachineViews implements Input.
func (p *VertexPartition) MachineViews(hosted []core.MachineID) ([]View, error) {
	return p.shards(hosted), nil
}

// EdgePartition is a materialised REP: edge i (in graph.EdgeList order)
// is owned by a uniformly random machine.
type EdgePartition struct {
	G    *graph.Graph
	K    int
	Seed uint64

	edges [][2]int32
	owner []core.MachineID
	byM   [][][2]int32
}

// NewREP partitions g's edges across k machines uniformly at random.
func NewREP(g *graph.Graph, k int, seed uint64) *EdgePartition {
	if k < 2 {
		panic("partition: need k >= 2")
	}
	r := rng.New(seed)
	p := &EdgePartition{G: g, K: k, Seed: seed}
	p.edges = g.EdgeList()
	p.owner = make([]core.MachineID, len(p.edges))
	p.byM = make([][][2]int32, k)
	for i := range p.edges {
		m := core.MachineID(r.Intn(k))
		p.owner[i] = m
		p.byM[m] = append(p.byM[m], p.edges[i])
	}
	return p
}

// Edges returns the edges owned by machine m.
func (p *EdgePartition) Edges(m core.MachineID) [][2]int32 { return p.byM[m] }

// Balance returns the min and max number of edges per machine.
func (p *EdgePartition) Balance() (min, max int) {
	min = len(p.edges) + 1
	for _, l := range p.byM {
		if len(l) < min {
			min = len(l)
		}
		if len(l) > max {
			max = len(l)
		}
	}
	if min > len(p.edges) {
		min = 0
	}
	return
}

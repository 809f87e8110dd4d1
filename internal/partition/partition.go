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
// A View is a machine-local window onto the partitioned graph. Its
// accessors panic when an algorithm touches a vertex that is not local,
// which keeps the simulated algorithms honest about what a machine can
// see: the home machine knows the IDs of its vertices' neighbours and
// those neighbours' home machines, and nothing else.
//
// View is an interface with two implementations: GraphView, backed by a
// fully materialised *graph.Graph (every process holds the whole input),
// and LocalView (local.go), backed by a per-machine CSR holding only the
// adjacency rows of the machine's own vertices — the paper's actual
// input model, where machine m stores Õ((n+m)/k) words, realised without
// any global graph object behind it.
package partition

import (
	"fmt"

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

// VertexPartition is a materialised RVP of a graph.
type VertexPartition struct {
	G    *graph.Graph
	K    int
	Seed uint64

	home   []core.MachineID
	locals [][]int32
}

// NewRVP partitions g across k machines by hashing vertex IDs with seed.
func NewRVP(g *graph.Graph, k int, seed uint64) *VertexPartition {
	if k < 2 {
		panic("partition: need k >= 2")
	}
	p := &VertexPartition{G: g, K: k, Seed: seed}
	p.home = make([]core.MachineID, g.N())
	p.locals = make([][]int32, k)
	for v := 0; v < g.N(); v++ {
		h := Home(seed, int32(v), k)
		p.home[v] = h
		p.locals[h] = append(p.locals[h], int32(v))
	}
	return p
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
	p := &VertexPartition{G: g, K: n, Seed: 0}
	p.home = make([]core.MachineID, n)
	p.locals = make([][]int32, n)
	for v := 0; v < n; v++ {
		p.home[v] = core.MachineID(v)
		p.locals[v] = []int32{int32(v)}
	}
	return p
}

// Home returns the home machine of v.
func (p *VertexPartition) Home(v int32) core.MachineID { return p.home[v] }

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
// its own vertices and their incident edges, plus the public knowledge
// of the model (n, k, and the hash-computable home of any vertex ID).
// Accessing a non-local vertex's adjacency panics — that would be
// cheating in the model. GraphView implements it over a materialised
// global graph; LocalView over a per-machine CSR shard.
type View interface {
	// Self returns the owning machine.
	Self() core.MachineID
	// K returns the number of machines.
	K() int
	// N returns the global vertex count (public knowledge in the model).
	N() int
	// Locals returns this machine's vertices in increasing ID order.
	Locals() []int32
	// IsLocal reports whether u is homed here.
	IsLocal(u int32) bool
	// HomeOf returns the home machine of any vertex (hashing is public).
	HomeOf(u int32) core.MachineID
	// OutAdj returns the out-neighbours (or neighbours, if undirected)
	// of a LOCAL vertex, sorted. The slice aliases internal storage.
	OutAdj(u int32) []int32
	// InAdj returns the in-neighbours of a LOCAL vertex. (The home
	// machine knows both directions of its vertices' incident edges,
	// §1.1.)
	InAdj(u int32) []int32
	// Degree returns the out-degree of a LOCAL vertex.
	Degree(u int32) int
}

// Input is a partitioned problem input as the algorithm driver sees it:
// it hands every machine its View. *VertexPartition implements it by
// windowing the shared global graph; ShardedInput (local.go) by building
// the CSR shards of the machines a process hosts from one pass over the
// source, so a process hosting one machine materialises only that
// machine's Õ((n+m)/k) share.
type Input interface {
	// NumMachines returns k.
	NumMachines() int
	// MachineViews returns the local windows of the machines this
	// process hosts, in the order given. For sharded inputs this is
	// where the shards are generated or ingested — once for the whole
	// set — so it can fail.
	MachineViews(hosted []core.MachineID) ([]View, error)
	// MachineView is MachineViews for a set of one.
	MachineView(m core.MachineID) (View, error)
}

// View returns machine m's local window onto the materialised graph.
func (p *VertexPartition) View(m core.MachineID) *GraphView {
	return &GraphView{p: p, self: m}
}

// NumMachines implements Input.
func (p *VertexPartition) NumMachines() int { return p.K }

// MachineView implements Input.
func (p *VertexPartition) MachineView(m core.MachineID) (View, error) {
	return p.View(m), nil
}

// MachineViews implements Input.
func (p *VertexPartition) MachineViews(hosted []core.MachineID) ([]View, error) {
	views := make([]View, len(hosted))
	for i, m := range hosted {
		views[i] = p.View(m)
	}
	return views, nil
}

// GraphView is the full-materialisation View: a window onto a
// *graph.Graph shared by all k machines of the process. Setup cost is
// O(n+m) per process; LocalView is the O((n+m)/k) alternative.
type GraphView struct {
	p    *VertexPartition
	self core.MachineID
}

// Self returns the owning machine.
func (v *GraphView) Self() core.MachineID { return v.self }

// K returns the number of machines.
func (v *GraphView) K() int { return v.p.K }

// N returns the global vertex count (public knowledge in the model).
func (v *GraphView) N() int { return v.p.G.N() }

// Locals returns this machine's vertices.
func (v *GraphView) Locals() []int32 { return v.p.locals[v.self] }

// IsLocal reports whether u is homed here.
func (v *GraphView) IsLocal(u int32) bool { return v.p.home[u] == v.self }

// HomeOf returns the home machine of any vertex (hashing is public).
func (v *GraphView) HomeOf(u int32) core.MachineID { return v.p.home[u] }

// OutAdj returns the out-neighbours (or neighbours, if undirected) of a
// LOCAL vertex.
func (v *GraphView) OutAdj(u int32) []int32 {
	v.mustLocal(u, "OutAdj")
	return v.p.G.Adj(int(u))
}

// InAdj returns the in-neighbours of a LOCAL vertex. (The home machine
// knows both directions of its vertices' incident edges, §1.1.)
func (v *GraphView) InAdj(u int32) []int32 {
	v.mustLocal(u, "InAdj")
	return v.p.G.InAdj(int(u))
}

// Degree returns the out-degree of a LOCAL vertex.
func (v *GraphView) Degree(u int32) int {
	v.mustLocal(u, "Degree")
	return v.p.G.Degree(int(u))
}

func (v *GraphView) mustLocal(u int32, op string) {
	if v.p.home[u] != v.self {
		panic(fmt.Sprintf("partition: machine %d illegally accessed %s(%d), homed at %d",
			v.self, op, u, v.p.home[u]))
	}
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

// Package gen generates the graph families used throughout the paper's
// arguments and this reproduction's experiments:
//
//   - Gnp / Gnm Erdős–Rényi graphs — the triangle lower bound (Theorem 3)
//     samples inputs from G(n, 1/2);
//   - the Figure-1 lower-bound graph H for PageRank (Theorem 2), with its
//     random edge-direction bit vector and random vertex-ID obfuscation;
//   - stars and preferential-attachment (power-law) graphs — the skewed
//     inputs on which the congestion-avoidance machinery of §3
//     (aggregation, heavy-vertex handling, proxies) is exercised;
//   - paths, cycles, complete and complete-bipartite graphs for
//     closed-form sanity checks;
//   - planted-triangle graphs for sparse enumeration tests.
//
// All generators are deterministic given their seed.
//
// # One stream per family
//
// The families a run can shard (Gnp, DirectedGnp, Gnm, Star, Path,
// Cycle, PreferentialAttachment) are each defined once, as a canonical
// edge stream; the full constructor builds the graph the stream emits,
// and a partition.ShardedInput over the same stream builds any hosted
// set of CSR shards (GnpInput is the registry's), so sharded and
// materialised setup are bit-identical by construction. Gnp and
// DirectedGnp derive one independent RNG stream per adjacency row
// (rowRNG), so row u's edges are a pure function of (seed, u) and the
// stream is cheap to run twice, count then fill; Gnm and
// PreferentialAttachment keep a single sequential stream (global dedupe
// and global degree state are inherent to those models), which a shard
// input runs once and spools.
//
// Cost note: under a hashed RVP a stream cannot be cut down to one
// machine's rows — an undirected edge {u,v} with u remote and v local
// is decided by row u's RNG, which only running row u reproduces — so a
// process pays O(n+m) generation time however few machines it hosts,
// and O((n+m)/k) retained memory per hosted machine, which is the
// resource the model actually bounds. It pays that time once: a process
// hosting all k machines runs the stream as often as one hosting one.
package gen

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
)

// stream is a family's canonical edge stream, the Stream of a
// partition.ShardedInput. A generator stream never fails.
type stream = func(emit func(u, v int32)) error

// build materialises the graph a stream emits: the full constructor of
// every streamed family.
func build(n int, directed bool, s stream) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	_ = s(func(u, v int32) { b.AddEdge(int(u), int(v)) }) // a generator stream never fails
	return b.Build()
}

// rowRNG returns the independent RNG stream of adjacency row u: the
// per-row seeding that makes every row a pure function of (seed, u).
func rowRNG(seed uint64, u int32) *rng.RNG {
	return rng.NewStream(seed, uint64(uint32(u)))
}

// gnpRow emits row u of the canonical G(n, p) upper-triangular form: the
// neighbours v in (u, n) chosen by row u's stream with Batagelj–Brandes
// geometric skipping, so the expected work per row is O(p·(n-u)), not
// O(n). The undirected edge {u,v}, u < v, exists iff row u emits v.
func gnpRow(n int, p float64, seed uint64, u int32, emit func(v int32)) {
	if p >= 1 {
		for v := int(u) + 1; v < n; v++ {
			emit(int32(v))
		}
		return
	}
	r := rowRNG(seed, u)
	lq := math.Log1p(-p)
	v := int(u)
	for {
		g := math.Floor(math.Log(1-r.Float64()) / lq)
		if g >= float64(n-v-1) { // v + 1 + g would leave the row
			return
		}
		v += 1 + int(g)
		emit(int32(v))
	}
}

// gnpStream is the canonical G(n, p) edge stream: every row in order,
// each edge {u,v} (u < v) emitted once.
func gnpStream(n int, p float64, seed uint64) stream {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: Gnp probability %v out of [0,1]", p))
	}
	return func(emit func(u, v int32)) error {
		for u := 0; u < n-1 && p > 0; u++ {
			gnpRow(n, p, seed, int32(u), func(v int32) { emit(int32(u), v) })
		}
		return nil
	}
}

// Gnp samples an undirected Erdős–Rényi G(n, p) graph in its per-row
// canonical form (see the package comment): row-seeded geometric
// skipping, linear in the number of edges.
func Gnp(n int, p float64, seed uint64) *graph.Graph {
	return build(n, false, gnpStream(n, p, seed))
}

// GnpInput is the ShardedInput of Gnp(ps.N, p, seed): the registry's
// graph input, the partition-local counterpart of NewRVP(Gnp(n, p,
// seed), k, pseed).
func GnpInput(ps partition.Spec, p float64, seed uint64) *partition.ShardedInput {
	return &partition.ShardedInput{Spec: ps, Stream: gnpStream(ps.N, p, seed)}
}

// GnpShard is machine m's shard of GnpInput, kept for benchmark/micro.go.
func GnpShard(ps partition.Spec, p float64, seed uint64, m core.MachineID) *partition.LocalView {
	return GnpInput(ps, p, seed).View(m)
}

// directedGnpRow emits row u of the canonical directed G(n, p): the
// out-neighbours of u, chosen from [0,n)\{u} by row u's stream with
// geometric skipping over the n-1 candidate slots.
func directedGnpRow(n int, p float64, seed uint64, u int32, emit func(v int32)) {
	if p >= 1 {
		for v := 0; v < n; v++ {
			if int32(v) != u {
				emit(int32(v))
			}
		}
		return
	}
	r := rowRNG(seed, u)
	lq := math.Log1p(-p)
	slot := -1 // slots 0..n-2 map to columns skipping u
	for {
		g := math.Floor(math.Log(1-r.Float64()) / lq)
		if g >= float64(n-1-slot-1) {
			return
		}
		slot += 1 + int(g)
		col := int32(slot)
		if col >= u {
			col++
		}
		emit(col)
	}
}

// directedGnpStream is the canonical directed G(n, p) arc stream:
// every row in order, each from its own row stream.
func directedGnpStream(n int, p float64, seed uint64) stream {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: DirectedGnp probability %v out of [0,1]", p))
	}
	return func(emit func(u, v int32)) error {
		for u := 0; u < n && p > 0; u++ {
			directedGnpRow(n, p, seed, int32(u), func(v int32) { emit(int32(u), v) })
		}
		return nil
	}
}

// DirectedGnp samples a directed G(n, p) in per-row canonical form:
// every ordered pair (u,v), u != v, is an arc independently with
// probability p, decided by row u's stream.
func DirectedGnp(n int, p float64, seed uint64) *graph.Graph {
	return build(n, true, directedGnpStream(n, p, seed))
}

// gnmStream is the canonical G(n, m) edge stream: the first m
// distinct unordered pairs of the seed's candidate sequence (pairs drawn
// uniformly, self-pairs skipped). The dedupe is slice-based — sample,
// sort, count, top up — so the stream allocates a few flat slices
// instead of a map of every edge (see BenchmarkGnm).
func gnmStream(n, m int, seed uint64) stream {
	if maxM := n * (n - 1) / 2; m > maxM {
		panic(fmt.Sprintf("gen: Gnm wants %d edges but K_%d has only %d", m, n, maxM))
	}
	return func(emit func(u, v int32)) error {
		if m == 0 {
			return nil
		}
		r := rng.New(seed)
		draws := make([][2]int32, 0, m+m/8+8)
		// Draw in batches until the draw sequence contains >= m distinct
		// pairs; near-clique inputs need the top-up rounds (coupon
		// collector), sparse ones finish in one.
		distinct := 0
		scratch := make([][2]int32, 0, m+m/8+8)
		for distinct < m {
			need := m - distinct
			need += need/8 + 1
			for i := 0; i < need; i++ {
				u := int32(r.Intn(n))
				v := int32(r.Intn(n))
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				draws = append(draws, [2]int32{u, v})
			}
			scratch = append(scratch[:0], draws...)
			sort.Slice(scratch, func(i, j int) bool {
				if scratch[i][0] != scratch[j][0] {
					return scratch[i][0] < scratch[j][0]
				}
				return scratch[i][1] < scratch[j][1]
			})
			distinct = 0
			for i, p := range scratch {
				if i == 0 || p != scratch[i-1] {
					distinct++
				}
			}
		}
		// The canonical edge set is the first m distinct pairs in DRAW
		// order: sort draw indices by (pair, index), keep each pair's first
		// occurrence, then take the m earliest first-occurrences.
		idx := make([]int32, len(draws))
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool {
			pa, pb := draws[idx[a]], draws[idx[b]]
			if pa != pb {
				if pa[0] != pb[0] {
					return pa[0] < pb[0]
				}
				return pa[1] < pb[1]
			}
			return idx[a] < idx[b]
		})
		firsts := idx[:0]
		for i, id := range idx {
			if i == 0 || draws[id] != draws[idx[i-1]] {
				firsts = append(firsts, id)
			} else if firsts[len(firsts)-1] > id { // kept a later occurrence
				firsts[len(firsts)-1] = id
			}
		}
		slices.Sort(firsts)
		for _, id := range firsts[:m] {
			emit(draws[id][0], draws[id][1])
		}
		return nil
	}
}

// Gnm samples an undirected graph with exactly m distinct edges chosen
// uniformly from all pairs. It panics if m exceeds C(n,2).
func Gnm(n, m int, seed uint64) *graph.Graph {
	return build(n, false, gnmStream(n, m, seed))
}

// starStream is the star's edge stream: hub 0 to every other vertex.
func starStream(n int) stream {
	return func(emit func(u, v int32)) error {
		for v := 1; v < n; v++ {
			emit(0, int32(v))
		}
		return nil
	}
}

// Star returns the undirected star K_{1,n-1} with hub 0. The star is the
// paper's running example (§3.1) of a topology whose naive simulation
// congests one machine.
func Star(n int) *graph.Graph { return build(n, false, starStream(n)) }

// DirectedStarIn returns the directed star with all arcs pointing at
// hub 0 (the congestion example for PageRank token delivery).
func DirectedStarIn(n int) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for i := 1; i < n; i++ {
		b.AddEdge(i, 0)
	}
	return b.Build()
}

// pathStream is the path's edge stream: {v, v+1} for every v.
func pathStream(n int) stream {
	return func(emit func(u, v int32)) error {
		for v := 0; v+1 < n; v++ {
			emit(int32(v), int32(v+1))
		}
		return nil
	}
}

// Path returns the undirected path 0-1-...-(n-1).
func Path(n int) *graph.Graph { return build(n, false, pathStream(n)) }

// cycleStream is the cycle's edge stream: v to v+1 mod n for every v.
func cycleStream(n int) stream {
	return func(emit func(u, v int32)) error {
		for v := 0; v < n; v++ {
			emit(int32(v), int32((v+1)%n))
		}
		return nil
	}
}

// Cycle returns the undirected cycle on n vertices (n >= 3).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle needs n >= 3")
	}
	return build(n, false, cycleStream(n))
}

// DirectedCycle returns the directed cycle 0->1->...->0.
func DirectedCycle(n int) *graph.Graph {
	if n < 2 {
		panic("gen: DirectedCycle needs n >= 2")
	}
	return build(n, true, cycleStream(n))
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with parts [0,a) and [a,a+b).
func CompleteBipartite(a, b int) *graph.Graph {
	bl := graph.NewBuilder(a+b, false)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bl.AddEdge(u, v)
		}
	}
	return bl.Build()
}

// paStream is the canonical preferential-attachment edge stream: the
// seed graph's clique edges, then each arriving vertex's `attach`
// endpoints drawn degree-proportionally (repeated-endpoint list, +1
// smoothing) in a fixed order. The chosen endpoints of each vertex are
// sorted before being appended to the endpoint list, so the stream — and
// therefore the graph — is a pure function of (n, attach, seed); the
// pre-fix code appended them in Go map iteration order, which silently
// broke the package's seed-determinism promise for every later draw.
func paStream(n, attach int, seed uint64) stream {
	if attach < 1 {
		panic("gen: PreferentialAttachment needs attach >= 1")
	}
	return func(emit func(u, v int32)) error {
		r := rng.New(seed)
		endpoints := make([]int32, 0, 2*n*attach)
		for v := 0; v < n && v <= attach; v++ {
			endpoints = append(endpoints, int32(v))
			for u := 0; u < v; u++ {
				emit(int32(u), int32(v))
				endpoints = append(endpoints, int32(u), int32(v))
			}
		}
		chosen := make([]int32, 0, attach)
		for v := attach + 1; v < n; v++ {
			chosen = chosen[:0]
			for len(chosen) < attach {
				u := endpoints[r.Intn(len(endpoints))]
				if int(u) == v || slices.Contains(chosen, u) {
					continue
				}
				chosen = append(chosen, u)
			}
			slices.Sort(chosen)
			endpoints = append(endpoints, int32(v))
			for _, u := range chosen {
				emit(u, int32(v))
				endpoints = append(endpoints, u, int32(v))
			}
		}
		return nil
	}
}

// PreferentialAttachment grows a Barabási–Albert style power-law graph:
// vertices arrive one at a time and attach `attach` edges to existing
// vertices chosen proportionally to degree (+1 smoothing). The result
// has heavy-tailed degrees — the regime where the paper's heavy-vertex
// and proxy machinery matters.
func PreferentialAttachment(n, attach int, seed uint64) *graph.Graph {
	return build(n, false, paStream(n, attach, seed))
}

// PlantedTriangles returns a sparse graph consisting of t vertex-disjoint
// triangles plus `extra` random non-closing chord attempts, so that the
// exact triangle set is known by construction when extra == 0.
func PlantedTriangles(t int, extra int, seed uint64) *graph.Graph {
	n := 3 * t
	r := rng.New(seed)
	b := graph.NewBuilder(n, false)
	for i := 0; i < t; i++ {
		a, bb, c := 3*i, 3*i+1, 3*i+2
		b.AddEdge(a, bb)
		b.AddEdge(bb, c)
		b.AddEdge(a, c)
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u/3 != v/3 { // never add chords inside a planted triangle group
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

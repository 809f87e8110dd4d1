// Package triangle implements the paper's distributed triangle
// enumeration (§3.2) and its comparators.
//
// The main algorithm (Theorem 5, Õ(m/k^{5/3} + n/k^{4/3}) rounds) is the
// color-partition scheme: vertices are hashed into c = ⌊k^{1/3}⌋ color
// classes, each of the c³ ordered color triples is assigned to a distinct
// machine, and each machine enumerates exactly the triangles whose
// ID-sorted vertices carry its color sequence — so every triangle is
// output by exactly one machine. Edges reach the triple machines through
// uniformly random edge proxies (randomized proxy computation, §1.3),
// with the heavy-vertex designation rule of §3.2 (degree ≥ 2k·log n)
// deciding which endpoint's home machine ships each edge.
//
// The package also provides:
//
//   - the conversion-style baseline of Klauck et al. [33]
//     (Õ(m·n^{1/3}/k²) = Õ(n^{7/3}/k²) on dense graphs): the congested
//     clique TriPartition of Dolev et al. [21] with n^{1/3} color classes
//     simulated node-by-node through home machines, no proxies;
//   - a congested-clique mode (k = n via partition.NewIdentity), which
//     realises the Θ̃(n^{1/3}) upper bound side of Corollary 1;
//   - open-triad enumeration (§1.2), reusing the same color machinery.
package triangle

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
	"kmachine/internal/routing"
)

// Options configures the color-partition enumerator.
type Options struct {
	// Proxies routes edges through uniformly random proxy machines
	// (default in AlgorithmOptions). Disabling it is the E14 ablation:
	// designated home machines send straight to the triple machines.
	Proxies bool
	// HeavyDesignation enables the degree >= 2k·log n announcement round
	// and the light-endpoint designation rule. When disabled, a hash coin
	// picks the sender for every edge regardless of degree.
	HeavyDesignation bool
	// Collect materialises every machine's triangle list in the result
	// (tests); otherwise only counts and checksums are kept.
	Collect bool
	// Triads switches the enumeration target from triangles to open
	// triads (paper §1.2): three vertices with exactly two edges. The
	// distribution machinery is identical; a triple machine can certify
	// the *absence* of the closing edge because it holds every edge
	// between its color classes.
	Triads bool
	// ColorSeed salts the vertex -> color hash.
	ColorSeed uint64
}

// AlgorithmOptions returns the configuration of the paper's §3.2
// algorithm.
func AlgorithmOptions() Options {
	return Options{Proxies: true, HeavyDesignation: true}
}

// Result reports a distributed enumeration.
type Result struct {
	// Count is the total number of triangles output across machines.
	Count int64
	// Checksum is the XOR of graph.HashTriangle over all outputs; equal
	// counts and checksums against the sequential enumerator verify the
	// output set without materialising it.
	Checksum uint64
	// PerMachine[i] is the number of triangles machine i output (Lemma 9
	// guarantees some machine outputs >= t/k of them).
	PerMachine []int64
	// Triangles is the full output (only when Options.Collect).
	Triangles []graph.Triangle
	// Triads is the full output in triad mode (only when Options.Collect).
	Triads []graph.Triad
	// Colors is c = ⌊k^{1/3}⌋.
	Colors int
	// Stats is the measured communication profile.
	Stats *core.Stats
}

// Colors returns the number of color classes for a k-machine run:
// the largest c with c³ <= k.
func Colors(k int) int {
	c := 1
	for (c+1)*(c+1)*(c+1) <= k {
		c++
	}
	return c
}

// colorOf hashes a vertex into [0, c).
func colorOf(seed uint64, v int32, c int) int {
	return int(rng.Mix(seed^(uint64(uint32(v))+0xd1b54a32d192ed03)) % uint64(c))
}

// tripleOf returns machine m's ordered color triple, or ok=false if m is
// not a triple machine (m >= c³; such machines still act as proxies).
func tripleOf(m core.MachineID, c int) (c1, c2, c3 int, ok bool) {
	if int(m) >= c*c*c {
		return 0, 0, 0, false
	}
	i := int(m)
	return i / (c * c), (i / c) % c, i % c, true
}

// tripleMachine inverts tripleOf.
func tripleMachine(c1, c2, c3, c int) core.MachineID {
	return core.MachineID(c1*c*c + c2*c + c3)
}

// pairTargets returns the dense c×c table (entry a*c+b, either order of
// a and b) of the machines whose color tuple of the given arity — 3 for
// triples, 4 for quadruples — contains {a, b} as a sub-multiset, in
// ascending machine order. An edge with endpoint colors {a, b} must
// reach exactly these machines.
func pairTargets(c, arity int) [][]core.MachineID {
	machines := 1
	for i := 0; i < arity; i++ {
		machines *= c
	}
	targets := make([][]core.MachineID, c*c)
	var tuple [4]int
	for m := 0; m < machines; m++ {
		for i, rest := arity-1, m; i >= 0; i, rest = i-1, rest/c {
			tuple[i] = rest % c
		}
		for i := 0; i < arity; i++ {
			for j := i + 1; j < arity; j++ {
				a, b := min(tuple[i], tuple[j]), max(tuple[i], tuple[j])
				// m only grows, so a repeat of the pair within one tuple is the last entry.
				if t := targets[a*c+b]; len(t) == 0 || t[len(t)-1] != core.MachineID(m) {
					targets[a*c+b] = append(t, core.MachineID(m))
				}
			}
		}
	}
	for a := 0; a < c; a++ {
		for b := a + 1; b < c; b++ {
			targets[b*c+a] = targets[a*c+b]
		}
	}
	return targets
}

const (
	kindHeavyAnnounce = iota
	kindEdgeToProxy
	kindEdgeFinal
)

type tmsg struct {
	Kind uint8
	U, V int32
}

// colorRouter is the distribution half the triangle and 4-clique
// machines share: announce heavy vertices, designate one sender per
// edge, ship it to a uniformly random proxy, fan it out to every tuple
// machine that needs it, and collect the final edges in arrival order.
// The two machines differ only in their target table and in the walk
// they run over the collected edges.
type colorRouter struct {
	view partition.View
	opts Options
	c    int

	heavy   map[int32]bool
	targets [][]core.MachineID // pairTargets(c, arity)
	edges   [][2]int32         // final edges for enumeration
	walk    func()             // the owning machine's enumeration over edges
}

// newColorRouter is the router of machine view.Self() over c color
// classes; the owning machine sets walk.
func newColorRouter(view partition.View, opts Options, c int, targets [][]core.MachineID) colorRouter {
	return colorRouter{view: view, opts: opts, c: c, heavy: make(map[int32]bool), targets: targets}
}

// targetsOf returns the machines edge {u, v} must reach.
func (r *colorRouter) targetsOf(u, v int32) []core.MachineID {
	return r.targets[colorOf(r.opts.ColorSeed, u, r.c)*r.c+colorOf(r.opts.ColorSeed, v, r.c)]
}

// fanOut appends edge {u, v}'s final copies, one per target machine.
func (r *colorRouter) fanOut(out []core.Envelope[tmsg], u, v int32) []core.Envelope[tmsg] {
	for _, target := range r.targetsOf(u, v) {
		out = append(out, core.Envelope[tmsg]{
			To:    target,
			Words: 2,
			Msg:   tmsg{Kind: kindEdgeFinal, U: u, V: v},
		})
	}
	return out
}

// Step runs one superstep of the distribution, and the walk once every
// final edge has arrived.
func (r *colorRouter) Step(ctx *core.StepContext, inbox []core.Envelope[tmsg]) (out []core.Envelope[tmsg], done bool) {
	// Count before filling: how many copies this superstep emits and how
	// many final edges it delivers is known up front, so neither slice
	// grows by doubling (a proxied edge fans out ~c²-fold).
	emits, finals := 0, 0
	for i := range inbox {
		switch msg := &inbox[i].Msg; msg.Kind {
		case kindEdgeToProxy:
			emits += len(r.targetsOf(msg.U, msg.V))
		case kindEdgeFinal:
			finals++
		}
	}
	if ctx.Superstep == 1 {
		for _, u := range r.view.Locals() {
			emits += r.view.Degree(u) // at most: one endpoint ships each edge
		}
	}
	if emits > 0 {
		out = make([]core.Envelope[tmsg], 0, emits)
	}
	if finals > cap(r.edges)-len(r.edges) {
		r.edges = append(make([][2]int32, 0, len(r.edges)+finals), r.edges...)
	}
	for _, e := range inbox {
		switch e.Msg.Kind {
		case kindHeavyAnnounce:
			r.heavy[e.Msg.U] = true
		case kindEdgeToProxy:
			out = r.fanOut(out, e.Msg.U, e.Msg.V)
		case kindEdgeFinal:
			r.edges = append(r.edges, [2]int32{e.Msg.U, e.Msg.V})
		}
	}

	switch {
	case ctx.Superstep == 0:
		if r.opts.HeavyDesignation {
			threshold := routing.HeavyDegreeThreshold(ctx.K, r.view.N())
			for _, u := range r.view.Locals() {
				if r.view.Degree(u) >= threshold {
					r.heavy[u] = true
					for j := 0; j < ctx.K; j++ {
						if core.MachineID(j) == r.view.Self() {
							continue
						}
						out = append(out, core.Envelope[tmsg]{
							To:    core.MachineID(j),
							Words: 1,
							Msg:   tmsg{Kind: kindHeavyAnnounce, U: u},
						})
					}
				}
			}
		}
		return out, false

	case ctx.Superstep == 1:
		// Ship designated edges.
		for _, u := range r.view.Locals() {
			for _, v := range r.view.OutAdj(u) {
				if routing.DesignatedEndpoint(u, v, r.heavy[u], r.heavy[v], r.opts.ColorSeed) != u {
					continue
				}
				if r.opts.Proxies {
					proxy := core.MachineID(ctx.RNG.Intn(ctx.K))
					out = append(out, core.Envelope[tmsg]{
						To:    proxy,
						Words: 2,
						Msg:   tmsg{Kind: kindEdgeToProxy, U: u, V: v},
					})
				} else {
					out = r.fanOut(out, u, v)
				}
			}
		}
		return out, false

	default:
		// With proxies, superstep 2 emits the forwards computed above and
		// superstep 3 enumerates; without, superstep 2 enumerates.
		finalStep := 2
		if r.opts.Proxies {
			finalStep = 3
		}
		if ctx.Superstep < finalStep {
			return out, len(out) == 0
		}
		r.walk()
		return out, true
	}
}

// triangleTally is a machine's running triangle output.
type triangleTally struct {
	collect  bool
	count    int64
	checksum uint64
	out      []graph.Triangle
}

func (t *triangleTally) emit(tr graph.Triangle) {
	t.count++
	t.checksum ^= graph.HashTriangle(tr)
	if t.collect {
		t.out = append(t.out, tr)
	}
}

type triMachine struct {
	colorRouter
	triangleTally
	triads []graph.Triad
}

// enumerate lists the triangles (or triads) whose ID-sorted color
// sequence matches this machine's triple, using only the edges it
// received.
func (m *triMachine) enumerate() {
	c1, c2, c3, ok := tripleOf(m.view.Self(), m.c)
	if !ok {
		return
	}
	ix := newEdgeIndex(m.edges, m.opts.Triads, m.opts.ColorSeed, m.c)
	if m.opts.Triads {
		m.enumerateTriads(ix, int32(c1), int32(c2), int32(c3))
		return
	}
	ix.triangles(c1, c2, c3, m.emit)
}

// enumerateTriads lists open triads (centre u; endpoints v < w, edge
// {v,w} absent) whose ID-sorted color sequence matches the triple, over
// a symmetric index. The machine holds every edge between its color
// classes, so the absence check is sound.
func (m *triMachine) enumerateTriads(ix *edgeIndex, c1, c2, c3 int32) {
	for u := range ix.ids {
		nbrs := ix.row(int32(u))
		for i, v := range nbrs {
			for _, w := range nbrs[i+1:] {
				if ix.has(v, w) {
					continue
				}
				a, b, c := int32(u), v, w
				if a > b {
					a, b = b, a
				}
				if b > c {
					b, c = c, b
				}
				if ix.color[a] != c1 || ix.color[b] != c2 || ix.color[c] != c3 {
					continue
				}
				tr := graph.Triad{Center: ix.ids[u], Left: ix.ids[v], Right: ix.ids[w]}
				m.count++
				m.checksum ^= graph.HashTriad(tr)
				if m.collect {
					m.triads = append(m.triads, tr)
				}
			}
		}
	}
}

// Run executes the color-partition enumeration over the given partition
// through the generic internal/algo driver. cfg.K must equal p.K.
func Run(p *partition.VertexPartition, cfg core.Config, opts Options) (*Result, error) {
	if p.G.Directed() {
		return nil, fmt.Errorf("triangle: enumeration needs an undirected graph")
	}
	res, stats, err := algo.Run(Descriptor(cfg.K, opts), p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

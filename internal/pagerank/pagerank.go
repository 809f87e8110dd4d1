// Package pagerank implements the paper's distributed PageRank
// computation (§3.1) in the k-machine model.
//
// The algorithm is the Monte-Carlo token process of Das Sarma et al.
// [20]: every vertex starts c·log n tokens; in each of Θ(log n / eps)
// iterations a token terminates with probability eps and otherwise moves
// to a uniformly random out-neighbour; psi(v) counts all tokens that ever
// visit v and eps·psi(v)/(n·c·log n) is whp a δ-approximation of
// PageRank(v).
//
// The paper's contribution (Algorithm 1, Theorem 4) is how to route the
// token movements in Õ(n/k²) rounds instead of the Õ(n/k) obtained by
// mechanically converting the CONGEST algorithm (Klauck et al. [33]):
//
//  1. per-destination aggregation — a machine merges all tokens its
//     vertices send to the same destination vertex v into one count
//     message ⟨α[v], dest:v⟩ (light path);
//  2. heavy vertices — a vertex holding ≥ k tokens samples, per token, a
//     destination *machine* j with probability n_{j,u}/d_u and sends one
//     count message ⟨β[j], src:u⟩ per machine; the receiver forwards each
//     counted token to a uniformly random locally-hosted neighbour of u.
//     This caps a heavy vertex's traffic at k-1 messages per iteration;
//  3. direct routing — each light message goes straight to its
//     destination's home. A machine sends at most one per destination
//     vertex, and the random vertex partition homes vertices independently
//     of the graph, so a link already carries the Binomial(|Dᵢ|, ~1/k)
//     share Lemma 13's relay would give it, in one superstep, not two.
//
// Options toggles the first two: disabling both yields exactly the
// conversion-style baseline the paper improves upon, and each toggle
// alone drives an E14 ablation row.
package pagerank

import (
	"fmt"
	"math"
	"math/bits"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
	"kmachine/internal/routing"
)

// Options configures a distributed PageRank run.
type Options struct {
	// Eps is the reset probability (must be in (0,1)).
	Eps float64
	// Tokens is the number of tokens each vertex starts with. 0 means
	// ceil(C·log2(n+1)) with C = 8, the paper's c·log n.
	Tokens int
	// Iterations caps the random-walk steps; the run stops sooner, as
	// soon as every token has died. 0 means ceil(3·ln(n·Tokens+1)/Eps),
	// a cap all tokens die within whp.
	Iterations int
	// Aggregate enables per-destination-vertex aggregation (paper's α).
	Aggregate bool
	// HeavyPath enables the ≥k-token machine-level path (paper's β).
	HeavyPath bool
}

// AlgorithmOne returns the paper's Algorithm 1 configuration.
func AlgorithmOne(eps float64) Options {
	return Options{Eps: eps, Aggregate: true, HeavyPath: true}
}

// ConversionBaseline returns the Õ(n/k) baseline of Klauck et al. [33]:
// a direct simulation of the CONGEST token algorithm with per-edge
// messages, no heavy-vertex handling and direct routing.
func ConversionBaseline(eps float64) Options {
	return Options{Eps: eps}
}

// ApplyDefaults fills Tokens and Iterations with the paper's defaults
// for an n-vertex input. Every machine of a run must use the same
// resolved Options — Descriptor calls it once for every machine it
// builds, whatever the substrate.
func (o *Options) ApplyDefaults(n int) {
	if o.Tokens == 0 {
		o.Tokens = int(math.Ceil(8 * math.Log2(float64(n)+1)))
	}
	if o.Iterations == 0 {
		o.Iterations = int(math.Ceil(3 * math.Log(float64(n)*float64(o.Tokens)+1) / o.Eps))
	}
}

// Result is the outcome of a distributed PageRank computation.
type Result struct {
	// Estimate[v] is the PageRank estimate output by v's home machine.
	Estimate []float64
	// Psi[v] is the raw visit count behind the estimate.
	Psi []int64
	// OutputsPerMachine[i] counts the (vertex, value) pairs machine i
	// output — the quantity the lower-bound argument (Lemma 6) tracks.
	OutputsPerMachine []int
	// Stats is the measured communication profile.
	Stats *core.Stats
	// Iterations actually executed: at most Options.Iterations.
	Iterations int
	// TokensPerVertex actually used.
	TokensPerVertex int
}

// msg is the wire format. Light messages carry a destination vertex and
// a token count; heavy messages carry a source vertex and a token count.
type msg struct {
	Kind  uint8 // kindLight or kindHeavy
	V     int32
	Count int64
}

const (
	kindLight = iota
	kindHeavy
)

// MsgWords is the words one token message costs: vertex ID + count,
// each one Θ(log n)-bit word.
const MsgWords = 2

type machine struct {
	view partition.View
	opts Options

	// Token state is indexed by row, a vertex's position in
	// view.Locals(): tokens[r]/psi[r] are row r's live tokens and visit
	// count, adj[r] its out-neighbours (cached once, so the walk never
	// searches the view), and heavyDist[r] its alias table over
	// destination machines, built the first time r walks heavy. row maps
	// a global vertex ID to its row, or -1 if the vertex is not homed
	// here; light receives go through it.
	row       []int32
	adj       [][]int32
	tokens    []int64
	psi       []int64
	heavyDist []*rng.Alias
	// byIn(u) = byInIdx[byInOff[u]:byInOff[u+1]] lists the rows of the
	// local vertices that are out-neighbours of u (receiver side of the
	// heavy path) — a CSR index built count-then-place.
	byInOff []int32
	byInIdx []int32

	// Per-superstep scratch, recycled across supersteps so a
	// steady-state Step allocates nothing. accVals is the light path's
	// per-destination-vertex counter, dense over the global vertex
	// space; touched has bit v set while accVals[v] is nonzero, and
	// words [lo, hi] of it hold every set bit (lo > hi when none is).
	// beta holds the heavy path's per-machine counts.
	accVals []int64
	touched []uint64
	lo, hi  int
	beta    []int64
	// buckets[j] collects the superstep's envelopes addressed to machine
	// j, in program order;
	// core.EmitBuckets hands each non-self bucket to the round as it is
	// and returns the self-addressed one as the rest.
	buckets [][]core.Envelope[wire]

	iter int
}

func newMachine(view partition.View, opts Options) *machine {
	n, locals := view.N(), view.Locals()
	m := &machine{
		view:      view,
		opts:      opts,
		row:       make([]int32, n),
		adj:       make([][]int32, len(locals)),
		tokens:    make([]int64, len(locals)),
		psi:       make([]int64, len(locals)),
		heavyDist: make([]*rng.Alias, len(locals)),
		byInOff:   make([]int32, n+1),
		accVals:   make([]int64, n),
		touched:   make([]uint64, (n+63)/64),
		beta:      make([]int64, view.K()),
		buckets:   make([][]core.Envelope[wire], view.K()),
	}
	m.lo, m.hi = len(m.touched), -1
	for v := range m.row {
		m.row[v] = -1
	}
	for r, v := range locals {
		m.row[v] = int32(r)
		m.adj[r] = view.OutAdj(v)
		m.tokens[r] = int64(opts.Tokens)
		m.psi[r] = int64(opts.Tokens)
		for _, u := range view.InAdj(v) {
			m.byInOff[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		m.byInOff[u+1] += m.byInOff[u]
	}
	m.byInIdx = make([]int32, m.byInOff[n])
	pos := make([]int32, n)
	copy(pos, m.byInOff[:n])
	// Rows ascend within each u's list: rows in increasing order, each
	// row's in-neighbours in CSR order.
	for r, v := range locals {
		for _, u := range view.InAdj(v) {
			m.byInIdx[pos[u]] = int32(r)
			pos[u]++
		}
	}
	return m
}

// byIn returns the rows of the local out-neighbours of u.
func (m *machine) byIn(u int32) []int32 {
	return m.byInIdx[m.byInOff[u]:m.byInOff[u+1]]
}

type wire = routing.Hop[msg]

func (m *machine) Step(ctx *core.StepContext, inbox []core.Envelope[wire]) ([]core.Envelope[wire], bool) {
	buckets := m.buckets
	for j := range buckets {
		buckets[j] = buckets[j][:0]
	}
	for i := range inbox {
		e := &inbox[i]
		if e.Msg.Final != ctx.Self {
			panic(fmt.Sprintf("pagerank: machine %d got tokens addressed to machine %d", ctx.Self, e.Msg.Final))
		}
		m.receive(ctx, &e.Msg.Msg)
	}
	// Every superstep walks an iteration over the tokens the machine holds.
	if m.iter < m.opts.Iterations {
		m.iter++
		for r, t := range m.tokens {
			if t == 0 {
				continue
			}
			// Terminate each token with probability eps (Algorithm 1 line 5).
			t -= ctx.RNG.Binomial(t, m.opts.Eps)
			m.tokens[r] = 0
			if t == 0 {
				continue
			}
			adj := m.adj[r]
			if len(adj) == 0 {
				// Dangling vertex: the killed walk ends here (the semantics
				// of the paper's Lemma 4 arithmetic — w is a sink).
				continue
			}
			if m.opts.HeavyPath && t >= int64(ctx.K) {
				m.walkHeavy(ctx, r, t)
				continue
			}
			m.walkLight(ctx.RNG, t, adj)
			if !m.opts.Aggregate {
				// Baseline granularity: per (source, destination-vertex)
				// counts, flushed per source vertex — no cross-vertex merging.
				m.flushLight(ctx)
			}
		}
		// Light path: destination-vertex counts accumulated across all
		// local sources (the paper's α), flushed once. The baseline has
		// flushed already, so this sends nothing for it.
		m.flushLight(ctx)
	}
	// Every live token has now died or sits in a bucket, so a machine
	// with empty buckets holds no token: it votes done, and the run halts
	// once every machine does. Past the cap nothing walks, and the same
	// vote freezes the tokens. The vote reads what the superstep
	// PRODUCED, the buckets, not what emission leaves as the rest.
	done := true
	for _, b := range buckets {
		done = done && len(b) == 0
	}
	return core.EmitBuckets(ctx, buckets), done
}

// walkLight moves t tokens to uniformly random out-neighbours, counting
// them per destination vertex in accVals and marking the destinations
// in touched.
func (m *machine) walkLight(rnd *rng.RNG, t int64, adj []int32) {
	lo, hi := m.lo, m.hi
	for ; t > 0; t-- {
		v := adj[rnd.Intn(len(adj))]
		m.accVals[v]++
		w := int(v >> 6)
		m.touched[w] |= 1 << (uint(v) & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	m.lo, m.hi = lo, hi
}

// flushLight emits one ⟨count, dest:v⟩ message per accumulated
// destination vertex, straight to v's home, and resets the accumulator.
// Walking the set bits of touched word by word, lowest bit first,
// visits the destinations in increasing vertex order without sorting
// them. Each message draws the random intermediate the relayed version
// of Algorithm 1 drew for it and discards it, which keeps Algorithm 1's
// RNG streams, and so its walks and outputs, that version's.
func (m *machine) flushLight(ctx *core.StepContext) {
	for w := m.lo; w <= m.hi; w++ {
		word := m.touched[w]
		m.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			v := int32(w<<6 | bits.TrailingZeros64(word))
			ctx.RNG.Intn(ctx.K)
			routing.RouteDirect(m.buckets, m.view.HomeOf(v), MsgWords,
				msg{Kind: kindLight, V: v, Count: m.accVals[v]})
			m.accVals[v] = 0
		}
	}
	m.lo, m.hi = len(m.touched), -1
}

// walkHeavy implements Algorithm 1 lines 18-27 for row r: sample a
// destination machine per token from the degree distribution and send
// one count message per machine.
func (m *machine) walkHeavy(ctx *core.StepContext, r int, t int64) {
	dist := m.heavyAlias(r)
	beta := m.beta
	for j := range beta {
		beta[j] = 0
	}
	for i := int64(0); i < t; i++ {
		beta[dist.Sample(ctx.RNG)]++
	}
	for j, c := range beta {
		if c == 0 {
			continue
		}
		// Heavy messages go direct: there is at most one per (vertex,
		// machine) pair, so they cannot congest a link (Lemma 12).
		routing.RouteDirect(m.buckets, core.MachineID(j), MsgWords,
			msg{Kind: kindHeavy, V: m.view.Locals()[r], Count: c})
	}
}

// heavyAlias returns row r's alias table over destination machines,
// weighted by how many of its out-neighbours each machine hosts,
// building it on first use.
func (m *machine) heavyAlias(r int) *rng.Alias {
	if m.heavyDist[r] == nil {
		weights := make([]float64, m.view.K())
		for _, v := range m.adj[r] {
			weights[m.view.HomeOf(v)]++
		}
		m.heavyDist[r] = rng.NewAlias(weights)
	}
	return m.heavyDist[r]
}

// receive processes an arrived payload, in place in the inbox.
func (m *machine) receive(ctx *core.StepContext, d *msg) {
	switch d.Kind {
	case kindLight:
		r := m.row[d.V]
		if r < 0 {
			panic(fmt.Sprintf("pagerank: machine %d got light tokens for %d, which is homed on machine %d",
				m.view.Self(), d.V, m.view.HomeOf(d.V)))
		}
		m.tokens[r] += d.Count
		m.psi[r] += d.Count
	case kindHeavy:
		// Distribute d.Count tokens of source vertex d.V uniformly among
		// its locally hosted out-neighbours (Algorithm 1 lines 31-36).
		rows := m.byIn(d.V)
		if len(rows) == 0 {
			panic(fmt.Sprintf("pagerank: machine %d got heavy tokens for %d but hosts no neighbour",
				m.view.Self(), d.V))
		}
		for i := int64(0); i < d.Count; i++ {
			r := rows[ctx.RNG.Intn(len(rows))]
			m.tokens[r]++
			m.psi[r]++
		}
	}
}

// Run executes a distributed PageRank computation over the given vertex
// partition. cfg.K must equal p.K. It routes through the generic
// internal/algo driver: the descriptor's machines, outputs, and merge
// are exactly what the standalone node runtime uses, so every substrate
// produces bit-identical results.
func Run(p *partition.VertexPartition, cfg core.Config, opts Options) (*Result, error) {
	res, stats, err := algo.Run(Descriptor(p.G.N(), opts), p, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// Package kmachine is a Go library reproducing "On the Distributed
// Complexity of Large-Scale Graph Computations" (Pandurangan, Robinson,
// Scquizzato; SPAA 2018): the k-machine model simulator, the paper's
// PageRank and triangle-enumeration algorithms with the prior-work
// baselines they improve upon, distributed sorting and connectivity, the
// General Lower Bound Theorem calculator, and the lower-bound
// constructions (the Figure-1 graph, revealed-path and induced-edge
// concentration experiments).
//
// This root package is the user-facing API: it re-exports the stable
// types and wraps the common entry points. The implementation lives in
// the internal packages (core, transport, algo, graph, gen, partition,
// routing, pagerank, triangle, dsort, conncomp, infotheory,
// lowerbound); see DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduction results.
//
// Every distributed algorithm is registered once in the internal/algo
// registry and runs on every substrate — the in-process loopback, real
// TCP sockets, and the standalone multi-process node runtime
// (cmd/kmnode) — with bit-identical Stats and outputs; Algorithms
// lists the registered names.
//
// Quick start:
//
//	g := kmachine.Gnp(1000, 0.01, 42)          // an Erdős–Rényi graph
//	p := kmachine.RandomVertexPartition(g, 16, 7)
//	res, err := kmachine.PageRank(p, kmachine.PageRankConfig{Eps: 0.15})
//	// res.Estimate[v] approximates PageRank(v); res.Stats.Rounds is the
//	// measured round complexity (Õ(n/k²), Theorem 4).
package kmachine

import (
	"context"
	"io"
	"time"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/infotheory"
	"kmachine/internal/obs"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/triangle"
)

// Algorithms returns the names of every algorithm registered in the
// unified driver layer (internal/algo), sorted. Each of them runs on
// all execution substrates — TransportInMem, TransportTCP, and the
// standalone node runtime behind cmd/kmnode — with bit-identical
// measured Stats and outputs.
func Algorithms() []string { return algo.Names() }

// Graph is an immutable CSR graph (see internal/graph).
type Graph = graph.Graph

// Triangle is a set of three mutually adjacent vertices, A < B < C.
type Triangle = graph.Triangle

// Triad is an open triad: Center adjacent to Left and Right, which are
// not adjacent to each other.
type Triad = graph.Triad

// VertexPartition is a random vertex partition of a graph over k
// machines (paper §1.1).
type VertexPartition = partition.VertexPartition

// Stats is the measured communication profile of a distributed run:
// rounds (the paper's T), messages, words, and per-machine totals.
type Stats = core.Stats

// Recorder receives wall-clock phase spans from an instrumented run
// (see RunConfig.Recorder); Trace is the standard implementation and
// TraceSpan one recorded interval (see internal/obs for the span
// vocabulary: compute, barrier, exchange, and per-peer frame phases).
type (
	Recorder  = obs.Recorder
	Trace     = obs.Trace
	TraceSpan = obs.Span
)

// NewTrace returns the standard ring-buffer Recorder: capacity spans of
// preallocated storage (<= 0 selects obs.DefaultTraceSpans) and, when
// k > 0, per-peer wire counters for a k-machine cluster. Recording is
// concurrency-safe and allocation-free; read the result with
// Trace.Spans, Trace.Counters, WriteChromeTrace, or Summarize.
func NewTrace(capacity, k int) *Trace { return obs.NewTrace(capacity, k) }

// WriteChromeTrace writes spans as Chrome trace-event JSON, the format
// chrome://tracing and Perfetto open directly.
func WriteChromeTrace(w io.Writer, spans []TraceSpan) error {
	return obs.WriteChromeTrace(w, spans)
}

// Summarize condenses a trace into per-phase aggregates, wall-clock,
// and span coverage (see obs.RunSummary).
func Summarize(spans []TraceSpan) obs.RunSummary { return obs.Summarize(spans) }

// Bound is one instantiation of the General Lower Bound Theorem.
type Bound = infotheory.Bound

// NewGraphBuilder returns a builder for an n-vertex graph.
func NewGraphBuilder(n int, directed bool) *graph.Builder {
	return graph.NewBuilder(n, directed)
}

// Gnp samples an undirected Erdős–Rényi G(n, p) graph.
func Gnp(n int, p float64, seed uint64) *Graph { return gen.Gnp(n, p, seed) }

// DirectedGnp samples a directed G(n, p) graph.
func DirectedGnp(n int, p float64, seed uint64) *Graph { return gen.DirectedGnp(n, p, seed) }

// PowerLaw grows a preferential-attachment graph with heavy-tailed
// degrees (the regime where the paper's proxy machinery matters).
func PowerLaw(n, attach int, seed uint64) *Graph {
	return gen.PreferentialAttachment(n, attach, seed)
}

// Star returns the undirected star K_{1,n-1} with hub 0.
func Star(n int) *Graph { return gen.Star(n) }

// LowerBoundGraph builds the paper's Figure-1 PageRank lower-bound graph
// with q weakly connected paths.
func LowerBoundGraph(q int, seed uint64) *gen.LowerBound { return gen.LowerBoundGraph(q, seed) }

// RandomVertexPartition hashes the vertices of g onto k machines — the
// input distribution of the k-machine model.
func RandomVertexPartition(g *Graph, k int, seed uint64) *VertexPartition {
	return partition.NewRVP(g, k, seed)
}

// CongestedCliquePartition puts vertex v on machine v (k = n), the model
// of Corollary 1.
func CongestedCliquePartition(g *Graph) *VertexPartition { return partition.NewIdentity(g) }

// DefaultBandwidth returns the per-link bandwidth (words/round) the
// experiments use for an n-vertex input: Θ(log n) words, i.e.
// B = Θ(log² n) bits.
func DefaultBandwidth(n int) int { return core.DefaultBandwidth(n) }

// TransportKind names the substrate envelopes travel on.
type TransportKind = transport.Kind

const (
	// TransportInMem is the in-process loopback (the default).
	TransportInMem = transport.InMem
	// TransportTCP runs every machine over its own socket link, with its
	// own listener+dialer on loopback TCP: every envelope crosses a real
	// socket as a binary frame, and every machine rules each superstep
	// from the rows its peers ship with their batches (kmnode -local).
	// Measured Stats are bit-identical to TransportInMem — the cost
	// accounting happens in core before envelopes reach a link.
	TransportTCP = transport.TCP
)

// RunConfig carries the execution-substrate options shared by all
// distributed entry points; algorithm configs embed it.
type RunConfig struct {
	// Transport selects the envelope substrate; empty means
	// TransportInMem.
	Transport TransportKind
	// DropPerSuperstep disables Stats.PerSuperstep retention — the only
	// Stats component that grows with the superstep count — keeping
	// long runs' memory footprint constant. All other Stats fields are
	// unaffected.
	DropPerSuperstep bool
	// Context cancels the run: the cluster observes it between
	// superstep phases and every transport operation is bounded by it,
	// so canceling aborts the computation with a wrapped context error
	// instead of running (or hanging) to completion. nil means
	// context.Background.
	Context context.Context
	// SuperstepTimeout bounds each whole superstep, the machines' local
	// computation included (the wire is live during it): a machine that
	// crashes or wedges mid-superstep, or a Step that outlasts the
	// timeout, surfaces as a deadline error (machine-attributed on
	// socket substrates) within the timeout instead of hanging the
	// cluster. 0 means no deadline. The happy path — Stats, outputs,
	// determinism — is identical with or without one.
	SuperstepTimeout time.Duration
	// Recorder, when non-nil, receives wall-clock phase spans from the
	// run: per machine and superstep, compute (the Step call),
	// barrier-wait (waiting for the slowest machine), and exchange (the
	// transport moving the batched envelopes), plus per-peer frame spans
	// on socket substrates. Use NewTrace for the standard ring-buffer
	// implementation and WriteChromeTrace / Summarize to read the result
	// out. Spans measure time only: Stats, outputs, and determinism
	// hashes are identical with or without a recorder, and nil (the
	// default) keeps the run on its zero-allocation span-free path.
	Recorder Recorder
	// CheckpointEvery opts the run into per-superstep checkpointing and
	// machine-loss recovery: machine state is captured every
	// CheckpointEvery supersteps, and a run that loses a machine is
	// re-run from its newest cut (from the start if it stored none), up
	// to core.DefaultMaxRecoveries times, instead of failing. Stats,
	// outputs, and hashes of a recovered run are bit-identical to an
	// unkilled one. 0 (the default) keeps the fail-fast behaviour and
	// the zero-overhead path. Requires every machine to implement
	// core.Snapshotter.
	CheckpointEvery int
	// CheckpointDir persists checkpoints to disk (two most recent
	// retained) instead of the default in-memory ring. Only meaningful
	// with CheckpointEvery > 0.
	CheckpointDir string
}

// coreConfig is the shared translation of a RunConfig into the
// substrate options of a core.Config.
func (rc RunConfig) coreConfig(k, bandwidth int, seed uint64) core.Config {
	cfg := core.Config{
		K:                k,
		Bandwidth:        bandwidth,
		Seed:             seed,
		Transport:        rc.Transport,
		DropPerSuperstep: rc.DropPerSuperstep,
		Context:          rc.Context,
		SuperstepTimeout: rc.SuperstepTimeout,
		Recorder:         rc.Recorder,
		Checkpoint:       core.CheckpointPolicy{Every: rc.CheckpointEvery},
	}
	if rc.CheckpointDir != "" {
		cfg.Checkpoint.Sink = core.NewFileSink(rc.CheckpointDir)
	}
	return cfg
}

// PageRankConfig configures a distributed PageRank run.
type PageRankConfig struct {
	RunConfig
	// Eps is the reset probability; 0 means 0.15.
	Eps float64
	// Bandwidth overrides the per-link words/round; 0 means
	// DefaultBandwidth(n).
	Bandwidth int
	// Seed drives all machine randomness.
	Seed uint64
	// Tokens and Iterations override the c·log n / Θ(log n / eps)
	// defaults when nonzero.
	Tokens     int
	Iterations int
	// Baseline selects the Õ(n/k) conversion-style algorithm of Klauck
	// et al. instead of the paper's Õ(n/k²) Algorithm 1.
	Baseline bool
}

// PageRankResult is the outcome of a distributed PageRank run.
type PageRankResult = pagerank.Result

// PageRank runs the paper's Algorithm 1 (or the baseline) on a
// partitioned graph and returns per-vertex estimates plus measured
// communication statistics.
func PageRank(p *VertexPartition, cfg PageRankConfig) (*PageRankResult, error) {
	if cfg.Eps == 0 {
		cfg.Eps = 0.15
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = core.DefaultBandwidth(p.G.N())
	}
	opts := pagerank.AlgorithmOne(cfg.Eps)
	if cfg.Baseline {
		opts = pagerank.ConversionBaseline(cfg.Eps)
	}
	opts.Tokens = cfg.Tokens
	opts.Iterations = cfg.Iterations
	return pagerank.Run(p, cfg.coreConfig(p.K, cfg.Bandwidth, cfg.Seed), opts)
}

// SequentialPageRank returns the exact PageRank vector by power
// iteration (the ground truth the distributed estimates approximate).
func SequentialPageRank(g *Graph, eps float64) []float64 {
	opts := graph.DefaultPageRankOptions()
	if eps > 0 {
		opts.Eps = eps
	}
	return graph.PowerIterationPageRank(g, opts)
}

// TriangleConfig configures a distributed triangle enumeration.
type TriangleConfig struct {
	RunConfig
	// Bandwidth overrides the per-link words/round; 0 means default.
	Bandwidth int
	// Seed drives all machine randomness.
	Seed uint64
	// Collect materialises the full triangle list in the result.
	Collect bool
	// Baseline selects the Õ(m·n^{1/3}/k²) conversion-style TriPartition
	// of Klauck et al. / Dolev et al. instead of the paper's
	// Õ(m/k^{5/3} + n/k^{4/3}) algorithm.
	Baseline bool
}

// TriangleResult is the outcome of a distributed enumeration.
type TriangleResult = triangle.Result

// Triangles enumerates all triangles of the partitioned graph; every
// triangle is output by exactly one machine.
func Triangles(p *VertexPartition, cfg TriangleConfig) (*TriangleResult, error) {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = core.DefaultBandwidth(p.G.N())
	}
	ccfg := cfg.coreConfig(p.K, cfg.Bandwidth, cfg.Seed)
	if cfg.Baseline {
		return triangle.RunBaseline(p, ccfg, triangle.Options{Collect: cfg.Collect})
	}
	opts := triangle.AlgorithmOptions()
	opts.Collect = cfg.Collect
	return triangle.Run(p, ccfg, opts)
}

// OpenTriads enumerates all open triads (three vertices, exactly two
// edges) using the same color-partition machinery (paper §1.2).
func OpenTriads(p *VertexPartition, cfg TriangleConfig) (*TriangleResult, error) {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = core.DefaultBandwidth(p.G.N())
	}
	opts := triangle.AlgorithmOptions()
	opts.Collect = cfg.Collect
	opts.Triads = true
	return triangle.Run(p, cfg.coreConfig(p.K, cfg.Bandwidth, cfg.Seed), opts)
}

// Clique4 is a set of four mutually adjacent vertices, A < B < C < D.
type Clique4 = graph.Clique4

// Clique4Result is the outcome of a distributed 4-clique enumeration.
type Clique4Result = triangle.Clique4Result

// Cliques4 enumerates all 4-cliques of the partitioned graph — the
// paper's §1.2 generalization of the triangle technique to larger
// subgraphs (c = ⌊k^{1/4}⌋ color classes, quadruple machines, edge
// proxies).
func Cliques4(p *VertexPartition, cfg TriangleConfig) (*Clique4Result, error) {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = core.DefaultBandwidth(p.G.N())
	}
	opts := triangle.AlgorithmOptions()
	opts.Collect = cfg.Collect
	return triangle.RunCliques4(p, cfg.coreConfig(p.K, cfg.Bandwidth, cfg.Seed), opts)
}

// SortResult is the outcome of a distributed sort.
type SortResult = dsort.Result

// Sort sorts n uniformly random keys distributed over k machines so that
// machine i ends with the i-th block of order statistics (§1.3; the GLBT
// gives Ω̃(n/k²) and this matches it).
func Sort(n, k int, bandwidth int, seed uint64) (*SortResult, error) {
	return SortOver(RunConfig{}, n, k, bandwidth, seed)
}

// SortOver is Sort over an explicit substrate (RunConfig.Transport).
func SortOver(rc RunConfig, n, k int, bandwidth int, seed uint64) (*SortResult, error) {
	in := dsort.RandomInput(n, k, seed, dsort.UniformKeys)
	if bandwidth == 0 {
		bandwidth = core.DefaultBandwidth(n)
	}
	return dsort.Run(in, rc.coreConfig(k, bandwidth, seed+1), 0)
}

// ComponentsResult is the outcome of a connectivity run.
type ComponentsResult = conncomp.Result

// ConnectedComponents labels every vertex with the minimum vertex ID of
// its component.
func ConnectedComponents(p *VertexPartition, bandwidth int, seed uint64) (*ComponentsResult, error) {
	return ConnectedComponentsOver(RunConfig{}, p, bandwidth, seed)
}

// ConnectedComponentsOver is ConnectedComponents over an explicit
// substrate (RunConfig.Transport).
func ConnectedComponentsOver(rc RunConfig, p *VertexPartition, bandwidth int, seed uint64) (*ComponentsResult, error) {
	if bandwidth == 0 {
		bandwidth = core.DefaultBandwidth(p.G.N())
	}
	return conncomp.Run(p, rc.coreConfig(p.K, bandwidth, seed))
}

// PageRankLowerBound returns Theorem 2's Ω(n/(B·k²)) instantiation of
// the General Lower Bound Theorem (bBits = link bandwidth in bits).
func PageRankLowerBound(n, k, bBits int) Bound { return infotheory.PageRankBound(n, k, bBits) }

// TriangleLowerBound returns Theorem 3's Ω(n²/(B·k^{5/3}))
// instantiation; pass t <= 0 for the G(n,1/2) expected triangle count.
func TriangleLowerBound(n, k, bBits int, t float64) Bound {
	return infotheory.TriangleBound(n, k, bBits, t)
}

// SortingLowerBound returns the §1.3 Ω(n/(B·k²)) sorting instantiation.
func SortingLowerBound(n, k, bBits int) Bound { return infotheory.SortingBound(n, k, bBits) }

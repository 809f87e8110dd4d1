package algo

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
)

// Problem is the standard seed-derived instance every registered
// algorithm runs on: the model's assumption that "the input is already
// partitioned when the computation starts" is realised by every process
// of a run rebuilding the identical graph, partition, and derived
// inputs from the shared seed — no input-distribution round is needed
// (cmd/kmnode relies on this, and so does the cross-substrate test
// suite).
type Problem struct {
	// N is the number of vertices (and, for dsort, keys; for routing,
	// messages per machine).
	N int
	// EdgeP is the G(n,p) edge probability; 0 means 10/N (at most 1).
	EdgeP float64
	// K is the number of machines.
	K int
	// Seed derives everything: the graph (Seed), the vertex partition
	// (Seed+1), and the machine random streams (Seed+2) — the same
	// convention on every substrate.
	Seed uint64
	// Bandwidth is the per-link words/round; 0 means DefaultBandwidth(N).
	Bandwidth int
	// Eps is the PageRank reset probability; 0 means 0.15.
	Eps float64
	// Top bounds summary listings (top-ranked vertices etc.); 0 means 5.
	Top int
	// SuperstepTimeout, Context and Recorder are the core.Config fields
	// of the same names, forwarded unchanged on every substrate: Context
	// is the per-job deadline hook of the job scheduler, and all three
	// leave Stats, outputs and hashes unchanged.
	SuperstepTimeout time.Duration
	Context          context.Context
	Recorder         obs.Recorder
	// Sharded is declared and unread: setup is always partition-local
	// (GraphInput / EdgelessInput), so there is nothing left to select.
	// The field survives only because frozen benchmark/workloads.go
	// still assigns it; the next [benchmark] PR drops that assignment
	// and this field with it.
	Sharded bool
	// InputPath, when non-empty, reads the graph from an edge-list file
	// (gen.ScanEdgeList format, kmnode -input) instead of generating
	// G(N, EdgeP); N still declares the vertex-ID space and Seed still
	// drives the partition and machine streams. Each process streams
	// the file once, straight into its machines' CSR shards.
	InputPath string
	// Checkpoint opts the run into per-superstep checkpointing and
	// machine-loss recovery on every all-k substrate (see retry), and
	// starts the run from the newest cut its sink holds of the same
	// run (digest), so the same command run again resumes. Off by
	// default — the zero value keeps today's fail-fast behaviour,
	// hashes, and Stats bit-identical.
	Checkpoint CheckpointSpec
}

// CheckpointSpec is the checkpoint policy of a Problem. Every runner
// takes the same cut, writes the same container into the same sink
// (core/checkpoint.go) and recovers through the same retry loop, so
// every field means one thing everywhere. The machines of the algorithm
// must implement core.Snapshotter (all registry algorithms do).
type CheckpointSpec struct {
	// Every captures a checkpoint after every Every-th superstep; 0
	// disables checkpointing, and with it recovery.
	Every int
	// Dir, when non-empty, stores checkpoints in a core.FileSink on that
	// directory; empty means an in-memory ring private to the run.
	Dir string
	// Sink overrides where checkpoints go (wins over Dir); tests use it
	// to inspect checkpoint traffic.
	Sink core.CheckpointSink
}

// policy resolves the spec into the runners' checkpoint policy; a nil
// sink leaves the run its private in-memory ring.
func (ck CheckpointSpec) policy() core.CheckpointPolicy {
	p := core.CheckpointPolicy{Every: ck.Every, Sink: ck.Sink}
	if p.Sink == nil && ck.Dir != "" {
		p.Sink = core.NewFileSink(ck.Dir)
	}
	return p
}

// digest names the run of algorithm name, at superstep protocol
// protocol, on the resolved prob for its checkpoints
// (core.CheckpointPolicy.Run), so a run resumes only its own cuts: the
// name, a nonzero protocol, every field that shapes the computation,
// and an input file's size and modification time. Top, the timeout,
// the context, the recorder and the checkpoint cadence leave every cut
// valid and stay out.
func (prob Problem) digest(name string, protocol uint64) (uint64, error) {
	h := NewHash64()
	if protocol != 0 {
		h.Add(protocol)
	}
	for _, s := range []string{name, prob.InputPath} {
		h.Add(uint64(len(s)))
		for i := range len(s) {
			h.Add(uint64(s[i]))
		}
	}
	for _, x := range []uint64{uint64(prob.N), math.Float64bits(prob.EdgeP), uint64(prob.K),
		prob.Seed, uint64(prob.Bandwidth), math.Float64bits(prob.Eps)} {
		h.Add(x)
	}
	if prob.InputPath != "" {
		fi, err := os.Stat(prob.InputPath)
		if err != nil {
			return 0, err
		}
		h.Add(uint64(fi.Size()))
		h.Add(uint64(fi.ModTime().UnixNano()))
	}
	return h.Sum(), nil
}

// withDefaults resolves the zero-value conventions.
func (prob Problem) withDefaults() Problem {
	if prob.EdgeP == 0 {
		prob.EdgeP = min(1, 10/float64(prob.N)) // a probability even for n < 10
	}
	if prob.Bandwidth == 0 {
		prob.Bandwidth = core.DefaultBandwidth(prob.N)
	}
	if prob.Eps == 0 {
		prob.Eps = 0.15
	}
	if prob.Top == 0 {
		prob.Top = 5
	}
	return prob
}

// config is the run configuration of a problem on the link kind names:
// the machine streams draw from Seed+2.
func (prob Problem) config(kind transport.Kind) core.Config {
	return core.Config{K: prob.K, Bandwidth: prob.Bandwidth, Seed: prob.Seed + 2,
		Transport: kind, SuperstepTimeout: prob.SuperstepTimeout, Context: prob.Context,
		Recorder: prob.Recorder, Checkpoint: prob.Checkpoint.policy()}
}

// Outcome is the substrate-agnostic report of one registry run.
type Outcome struct {
	// Algo is the registered name.
	Algo string
	// Stats is the measured communication profile. For standalone runs
	// it is the cluster-wide Stats every node accounts from the same rows.
	Stats *core.Stats
	// Wire is the substrate's physical bytes-on-wire (zero for the
	// loopback, which ships none). Stats are bit-identical across
	// substrates; Wire is precisely the part that is not.
	Wire transport.WireStats
	// Hash is the canonical FNV-1a hash of the merged output — the
	// quantity the cross-substrate equivalence suite compares. Zero for
	// standalone single-machine runs, which only hold a share of the
	// output.
	Hash uint64
	// Summary holds human-readable result lines (kmnode prints them).
	Summary []string
	// SetupTime is input-construction wall-clock: Spec.Build plus the
	// MachineViews call, which is where the hosted shards are generated
	// or ingested.
	SetupTime time.Duration
	// ExecTime is the remaining driver wall-clock: machine construction,
	// supersteps, and output merge. Splitting it from SetupTime keeps
	// O(n+m) build cost out of transport comparisons.
	ExecTime time.Duration
}

// Spec binds an Algorithm descriptor to the standard Problem instance,
// with the output hashing and summarising the erased registry needs.
type Spec[M, L, O any] struct {
	// Name keys the registry ("pagerank", "triangle", ...).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Build derives the descriptor and its partitioned input from the
	// problem (GraphInput or EdgelessInput: the hosted machines' shards,
	// never a global graph). It must be deterministic in prob: every
	// process of a distributed run calls it with identical arguments.
	Build func(prob Problem) (Algorithm[M, L, O], partition.Input, error)
	// Protocol numbers the algorithm's superstep protocol, and goes
	// into the run digest. Bump it when a change moves what a cut means
	// (which superstep a machine does what in, what an inbox may hold),
	// so cuts an older build stored are never resumed.
	Protocol uint64
	// Hash canonically hashes the merged output (order-independent of
	// machine layout, dependent on every output bit).
	Hash func(o O) uint64
	// Summarize renders the merged output; top bounds listings.
	Summarize func(o O, top int) []string
	// SummarizeLocal renders one machine's local output (standalone
	// kmnode, which never sees the merged result).
	SummarizeLocal func(l L, top int) []string
}

// Entry is the type-erased registry row: one registered algorithm,
// runnable on every substrate without knowing its generic types.
type Entry struct {
	// Name and Doc mirror the Spec.
	Name string
	Doc  string

	run func(prob Problem, at place) (*Outcome, error)
}

// place names the substrate of one registry run. The zero value is the
// in-process rendezvous on the loopback.
type place struct {
	// kind is the link of the k machines in this process; with mesh set
	// they run as job `job` on that standing mesh — unless:
	kind transport.Kind
	mesh *node.LocalMesh
	job  uint64
	// standalone runs ONE machine, this process's, of a cluster whose
	// peers live in other processes.
	standalone *node.Place
}

// Run executes the algorithm with all k machines in this process on the
// link kind names: the in-process rendezvous over the loopback, or, for
// transport.TCP, k socket links over in-memory connections.
func (e *Entry) Run(prob Problem, kind transport.Kind) (*Outcome, error) {
	return e.run(prob, place{kind: kind})
}

// RunNodeLocal is Run over transport.TCP, kept under this name for
// benchmark/run.go; everything else calls Run.
func (e *Entry) RunNodeLocal(prob Problem) (*Outcome, error) {
	return e.run(prob, place{kind: transport.TCP})
}

// RunStandalone executes ONE machine of the algorithm's cluster in this
// process, the one at names; peers live in other processes (kmnode
// -id). Everything else, recorder included, is the problem's. The
// outcome carries the machine-local summary and the cluster-wide Stats.
func (e *Entry) RunStandalone(prob Problem, at node.Place) (*Outcome, error) {
	return e.run(prob, place{standalone: &at})
}

// Submit runs any registered algorithm by name as job `job` on a
// standing mesh (node.RunJobLocal) — the type-erased entry point of the
// job scheduler: no generic instantiation at the call site, so a daemon
// can execute a mixed stream of algorithms on one fabric that outlives
// them. Stats, outputs, and hashes are bit-identical to Run over
// transport.TCP on the same Problem. On error the mesh is poisoned until
// the next job rebuilds it.
func Submit(name string, prob Problem, lm *node.LocalMesh, job uint64) (*Outcome, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q", name)
	}
	return e.run(prob, place{kind: transport.TCP, mesh: lm, job: job})
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Entry{}
)

// Register installs a Spec in the name-keyed registry. Algorithm
// packages call it from init(); importing kmachine/internal/algo/all
// (or any of the packages directly) populates the table. Duplicate
// names panic — they indicate two packages claiming one identity.
func Register[M, L, O any](s Spec[M, L, O]) {
	if s.Name == "" || s.Build == nil || s.Hash == nil {
		panic("algo: Register needs Name, Build, and Hash")
	}
	e := &Entry{Name: s.Name, Doc: s.Doc, run: s.launch}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = e
}

// launch is the one path from a Problem to an Outcome, wherever it
// runs: resolve the defaults, validate — once, before any input,
// cluster or mesh is built or attached, and a standalone machine's ID
// and checkpoint policy with it — build the input and the hosted
// machines' views, run, and split the wall-clock into setup (Build plus
// the one MachineViews call) and run. A canceled Context stops it
// after Build and after MachineViews, before the next, costlier step.
func (s Spec[M, L, O]) launch(prob Problem, at place) (*Outcome, error) {
	prob = prob.withDefaults()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := knownKind(at.kind); err != nil {
		return nil, err
	}
	hosted := partition.AllMachines(prob.K)
	if at.standalone != nil {
		if id := at.standalone.ID; id < 0 || id >= prob.K {
			return nil, fmt.Errorf("%s: machine %d out of [0,%d)", s.Name, id, prob.K)
		}
		if prob.Checkpoint.Every > 0 {
			return nil, fmt.Errorf("%s: one process of k can never complete a cut: checkpointing needs all k machines in one process", s.Name)
		}
		hosted = []core.MachineID{core.MachineID(at.standalone.ID)}
	}
	t0 := time.Now()
	a, in, err := s.Build(prob)
	if err != nil {
		return nil, err
	}
	if err := canceled(prob.Context, "before its shards were built"); err != nil {
		return nil, err
	}
	views, err := machineViews(a.Name, in, prob.K, hosted)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	if err := canceled(prob.Context, "before its machines were built"); err != nil {
		return nil, err
	}
	var o *Outcome
	if at.standalone != nil {
		o, err = s.one(prob, a, views[0], *at.standalone)
	} else {
		o, err = s.all(prob, a, views, at)
	}
	if err != nil {
		return nil, err
	}
	o.Algo, o.SetupTime, o.ExecTime = s.Name, setup, time.Since(t0)-setup
	return o, nil
}

// all runs the k machines in this process and reports the merged output.
func (s Spec[M, L, O]) all(prob Problem, a Algorithm[M, L, O], views []partition.View, at place) (*Outcome, error) {
	cfg := prob.config(at.kind)
	if cfg.Checkpoint.Every > 0 {
		var err error
		if cfg.Checkpoint.Run, err = prob.digest(s.Name, s.Protocol); err != nil {
			return nil, err
		}
	}
	out, stats, w, err := execute(a, views, inProcess(cfg, a.Codec, at.mesh, at.job))
	if err != nil {
		return nil, err
	}
	o := &Outcome{Stats: stats, Wire: w, Hash: s.Hash(out)}
	if s.Summarize != nil {
		o.Summary = s.Summarize(out, prob.Top)
	}
	return o, nil
}

// one runs this process's machine of a multi-process cluster, the one
// at names, from its view, and reports its local output. This is where
// the O((n+m)/k) per-process setup bound lands: launch built only this
// machine's rows.
func (s Spec[M, L, O]) one(prob Problem, a Algorithm[M, L, O], v partition.View, at node.Place) (*Outcome, error) {
	m, err := a.NewMachine(v)
	if err != nil {
		return nil, err
	}
	o := &Outcome{}
	if o.Stats, err = node.Run(prob.config(transport.Default), at, m, a.Codec); err != nil {
		return nil, err
	}
	if s.SummarizeLocal != nil {
		o.Summary = s.SummarizeLocal(m.Output(), prob.Top)
	}
	return o, nil
}

// Lookup returns the entry registered under name.
func Lookup(name string) (*Entry, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Entries returns the registered entries in Names() order.
func Entries() []*Entry {
	names := Names()
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Entry, 0, len(names))
	for _, n := range names {
		if e, ok := registry[n]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Hash64 accumulates a canonical FNV-1a hash over a stream of 64-bit
// words — the shared output-hash primitive of the registry Specs, so
// every algorithm's hash is comparable across substrates and runs.
type Hash64 struct{ sum uint64 }

// NewHash64 returns a hasher at the FNV-1a offset basis.
func NewHash64() *Hash64 { return &Hash64{sum: 14695981039346656037} }

// Add folds one 64-bit word, little-endian byte order.
func (h *Hash64) Add(x uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h.sum ^= uint64(byte(x >> (8 * i)))
		h.sum *= prime
	}
}

// Sum returns the accumulated hash.
func (h *Hash64) Sum() uint64 { return h.sum }

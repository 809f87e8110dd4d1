// Package algo is the unified algorithm driver of the k-machine
// simulator: one descriptor type and one execution path shared by every
// distributed algorithm in the repository.
//
// The paper's model (§1.1) is a single substrate — k machines, pairwise
// links, bandwidth-charged rounds — and the conversion theorems it
// builds on (Klauck et al., arXiv:1311.6209) are precisely about the
// substrate-independence of k-machine computations. This package makes
// that independence structural: an algorithm is described ONCE as an
// Algorithm value (name, wire codec, per-machine factory from a
// partition.View, local-output extraction, cross-machine merge) and the
// generic driver runs it on any substrate —
//
//   - Run / Exec: the in-process cluster (core.Cluster) over any
//     transport.Kind (loopback or real TCP sockets);
//   - NodeRunLocal: the socket link (transport/node), every machine
//     with its own listener+dialer over loopback TCP in one process
//     (cmd/kmnode -local);
//   - Entry.RunStandalone: ONE machine of a multi-process cluster
//     (cmd/kmnode -id), peers living in other processes.
//
// Every one of them is core.Drive per machine, and all cost accounting
// happens there before envelopes reach a link, so a descriptor's Stats
// and outputs are bit-identical on every substrate — the registry test suite asserts exactly that for
// every registered algorithm. All but the standalone one also share the
// one recovery loop (retry): a checkpointed run that loses a machine is
// re-run from its newest cut.
//
// The registry half of the package (registry.go) erases the generic
// types behind a name-keyed Entry table so CLIs and table-driven tests
// can enumerate algorithms without knowing their message types.
package algo

import (
	"errors"
	"fmt"

	"kmachine/internal/core"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/wire"
)

// Machine is one participant of a distributed algorithm: a core.Machine
// that can additionally report its share of the output after the run.
// M is the envelope payload type, L the machine-local output type.
type Machine[M, L any] interface {
	core.Machine[M]
	// Output returns this machine's share of the result. It is called
	// once, after the run completes; the returned value may alias
	// machine state.
	Output() L
}

// Algorithm describes one distributed algorithm to the generic driver.
// M is the envelope payload, L the machine-local output, O the merged
// cluster-wide output.
type Algorithm[M, L, O any] struct {
	// Name identifies the algorithm in errors and registry listings.
	Name string
	// Codec serialises envelope payloads for substrates that cross
	// process or socket boundaries (transport/tcp, transport/node); the
	// in-memory loopback ignores it.
	Codec wire.Codec[M]
	// NewMachine builds machine view.Self()'s state. Every substrate
	// calls it the same way, so a machine's behaviour cannot depend on
	// where it runs — nor on whether the view is a window onto a
	// materialised graph (partition.GraphView) or a partition-local CSR
	// shard (partition.LocalView).
	NewMachine func(view partition.View) (Machine[M, L], error)
	// Merge folds the k machine-local outputs (in machine-ID order)
	// into the cluster-wide output.
	Merge func(locals []L) O
}

// Run executes the algorithm over the partitioned input on an
// in-process cluster, resolving cfg.Transport with the descriptor's
// codec. It returns the merged output and the measured Stats. The input
// may be a materialised *partition.VertexPartition or a
// *partition.ShardedInput, whose k CSR shards are built from one pass
// over its source.
func Run[M, L, O any](a Algorithm[M, L, O], in partition.Input, cfg core.Config) (O, *core.Stats, error) {
	out, stats, _, err := execute(a, in, inProcess(cfg, a.Codec))
	return out, stats, err
}

// NodeRunLocal executes the algorithm over the socket link: the full
// k-machine cluster in this process, every machine with its own
// listener and dialer on loopback TCP, every node ruling each superstep
// itself (transport/node, cmd/kmnode -local). Outputs and Stats are
// bit-identical to Run with the same cfg, whose Transport is unread.
func NodeRunLocal[M, L, O any](a Algorithm[M, L, O], in partition.Input, cfg core.Config) (O, *core.Stats, error) {
	out, stats, _, err := execute(a, in, onSockets(cfg, nil, 0, a.Codec))
	return out, stats, err
}

// Exec is Run for algorithms whose input is not a vertex partition
// (dsort's key lists, routing's synthetic workloads): build constructs
// the k machines, in machine-ID order exactly like core.NewCluster's
// factory contract — once per attempt, so it must be deterministic.
func Exec[M, L, O any](cfg core.Config, codec wire.Codec[M], build func(core.MachineID) (Machine[M, L], error), merge func([]L) O) (O, *core.Stats, error) {
	out, stats, _, err := retry(build, merge, inProcess(cfg, codec))
	return out, stats, err
}

// site is where the k built machines of a run execute: cfg is the run,
// and run reports the paper-level Stats and the physical bytes-on-wire
// the substrate shipped (zero for the loopback) of one attempt of it —
// cfg with the attempt's checkpoint policy. The WireStats ride
// alongside the Stats rather than inside them: Stats are bit-identical
// across substrates by construction, bytes-on-wire are exactly the
// substrate-dependent quantity the model abstracts away.
type site[M any] struct {
	cfg core.Config
	run func(cfg core.Config, machine func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error)
}

// inProcess is the in-process cluster over cfg.Transport.
func inProcess[M any](cfg core.Config, codec wire.Codec[M]) site[M] {
	return site[M]{cfg: cfg,
		run: func(cfg core.Config, machine func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
			return core.RunOverWire(core.NewCluster(cfg, machine), codec)
		}}
}

// onSockets is the per-machine socket link, all k machines in this
// process: over a private loopback mesh (lm == nil, kmnode -local), or
// as job `job` on a standing one, the resident-daemon substrate, where
// the fabric outlives the run and a failed job poisons it until the
// next attempt rebuilds it.
func onSockets[M any](cfg core.Config, lm *node.LocalMesh, job uint64, codec wire.Codec[M]) site[M] {
	return site[M]{cfg: cfg,
		run: func(cfg core.Config, machine func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
			if lm == nil {
				return node.RunLocal(cfg, codec, machine)
			}
			return node.RunJobLocal(lm, cfg, job, codec, machine)
		}}
}

// execute is the single run entry of every all-k substrate: ask the
// input for all k views in ONE call — a sharded input replays its
// generator or reads its file once for the whole process, not once per
// machine — then run the machines built from them through retry.
func execute[M, L, O any](a Algorithm[M, L, O], in partition.Input, on site[M]) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	k := on.cfg.K
	if k != in.NumMachines() {
		return zero, nil, transport.WireStats{}, fmt.Errorf("%s: cluster k=%d but partition k=%d", a.Name, k, in.NumMachines())
	}
	views, err := in.MachineViews(partition.AllMachines(k))
	if err != nil {
		return zero, nil, transport.WireStats{}, fmt.Errorf("%s: %w", a.Name, err)
	}
	build := func(id core.MachineID) (Machine[M, L], error) { return a.NewMachine(views[id]) }
	return retry(build, a.Merge, on)
}

// retry is recovery, the one loop every all-k runner passes through: it
// constructs the k machines sequentially in machine-ID order (so a
// factory error surfaces before any cluster is built), runs them on the
// site, and merges their outputs. A failed attempt is retried — with
// machines rebuilt from the same input, against the same sink — when
// the failure is an attributed machine loss (it wraps
// *transport.MachineError), checkpointing is armed, the run context is
// live, and fewer than core.DefaultMaxRecoveries retries have run.
// Panics, cancellation, deadlines, MaxSupersteps and validation errors
// stay final. A retry resumes from the newest cut this launch stored;
// with none stored — whatever else the sink held is another run's — it
// starts over exactly as the first attempt did. Replay is
// deterministic, so a recovered run's output and Stats are
// bit-identical to an unkilled one's; Stats.Recoveries counts the
// retries and WireStats total every attempt's bytes.
func retry[M, L, O any](build func(core.MachineID) (Machine[M, L], error), merge func([]L) O, on site[M]) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	var total transport.WireStats
	cfg := on.cfg
	var sink *launchSink
	if cfg.Checkpoint.Every > 0 {
		sink = &launchSink{CheckpointSink: cfg.Checkpoint.Sink}
		if sink.CheckpointSink == nil {
			sink.CheckpointSink = core.NewMemorySink(0)
		}
		cfg.Checkpoint.Sink = sink
	}
	for recoveries := 0; ; recoveries++ {
		machines := make([]Machine[M, L], cfg.K)
		for i := range machines {
			m, err := build(core.MachineID(i))
			if err != nil {
				return zero, nil, total, err
			}
			machines[i] = m
		}
		stats, w, err := on.run(cfg, func(id core.MachineID) core.Machine[M] { return machines[id] })
		total = total.Plus(w)
		if err == nil {
			stats.Recoveries = recoveries
			locals := make([]L, cfg.K)
			for i, m := range machines {
				locals[i] = m.Output()
			}
			return merge(locals), stats, total, nil
		}
		var me *transport.MachineError
		if sink == nil || !errors.As(err, &me) || (cfg.Context != nil && cfg.Context.Err() != nil) || recoveries == core.DefaultMaxRecoveries {
			return zero, nil, total, err
		}
		cfg.Checkpoint.Resume = on.cfg.Checkpoint.Resume || sink.stored
	}
}

// launchSink is the checkpoint sink of one launch, resolved once so
// every attempt writes to and resumes from the same store. It notes
// whether this launch has stored a cut; Puts are serialised by the
// attempt's core.Assembler and finished before the attempt returns.
type launchSink struct {
	core.CheckpointSink
	stored bool
}

func (s *launchSink) Put(step int, blob []byte) error {
	err := s.CheckpointSink.Put(step, blob)
	s.stored = s.stored || err == nil
	return err
}

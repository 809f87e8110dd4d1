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
	"context"
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
	out, stats, _, err := execute(a, in, cfg.K, inProcess(cfg, a.Codec))
	return out, stats, err
}

// NodeRunLocal executes the algorithm over the socket link: the full
// k-machine cluster in this process, every machine with its own
// listener and dialer on loopback TCP and the report/verdict rounds of
// transport/node (cmd/kmnode -local). Outputs and Stats are
// bit-identical to Run on the same inputs. ncfg is the per-machine
// Config template of node.RunLocal (ID/addresses ignored); its K must
// match the partition's, and its Context/SuperstepTimeout knobs bound
// the run exactly as they do standalone.
func NodeRunLocal[M, L, O any](a Algorithm[M, L, O], in partition.Input, ncfg node.Config) (O, *core.Stats, error) {
	out, stats, _, err := execute(a, in, ncfg.K, onSockets(ncfg, nil, 0, a.Codec))
	return out, stats, err
}

// Exec is Run for algorithms whose input is not a vertex partition
// (dsort's key lists, routing's synthetic workloads): build constructs
// the k machines, in machine-ID order exactly like core.NewCluster's
// factory contract — once per attempt, so it must be deterministic.
func Exec[M, L, O any](cfg core.Config, codec wire.Codec[M], build func(core.MachineID) (Machine[M, L], error), merge func([]L) O) (O, *core.Stats, error) {
	out, stats, _, err := retry(cfg.K, build, merge, inProcess(cfg, codec))
	return out, stats, err
}

// site is where the k built machines of a run execute: run reports the
// paper-level Stats and the physical bytes-on-wire the substrate
// shipped (zero for the loopback) of one attempt under the checkpoint
// policy it is handed. The WireStats ride alongside the Stats rather
// than inside them: Stats are bit-identical across substrates by
// construction, bytes-on-wire are exactly the substrate-dependent
// quantity the model abstracts away. ctx and ck are the run's context
// and checkpoint policy, which decide whether a failed attempt is
// retried.
type site[M any] struct {
	ctx context.Context
	ck  core.CheckpointPolicy
	run func(machine func(core.MachineID) core.Machine[M], ck core.CheckpointPolicy) (*core.Stats, transport.WireStats, error)
}

// inProcess is the in-process cluster over cfg.Transport.
func inProcess[M any](cfg core.Config, codec wire.Codec[M]) site[M] {
	return site[M]{ctx: cfg.Context, ck: cfg.Checkpoint,
		run: func(machine func(core.MachineID) core.Machine[M], ck core.CheckpointPolicy) (*core.Stats, transport.WireStats, error) {
			cfg := cfg
			cfg.Checkpoint = ck
			return core.RunOverWire(core.NewCluster(cfg, machine), codec)
		}}
}

// onSockets is the per-machine socket link, all k machines in this
// process: over a private loopback mesh (lm == nil, kmnode -local), or
// as job `job` on a standing one, the resident-daemon substrate, where
// the fabric outlives the run and a failed job poisons it until the
// next attempt rebuilds it.
func onSockets[M any](ncfg node.Config, lm *node.LocalMesh, job uint64, codec wire.Codec[M]) site[M] {
	return site[M]{ctx: ncfg.Context, ck: ncfg.Checkpoint,
		run: func(machine func(core.MachineID) core.Machine[M], ck core.CheckpointPolicy) (*core.Stats, transport.WireStats, error) {
			ncfg := ncfg
			ncfg.Checkpoint = ck
			if lm == nil {
				return node.RunLocal(ncfg, codec, machine)
			}
			return node.RunJobLocal(lm, ncfg, job, codec, machine)
		}}
}

// execute is the single run entry of every all-k substrate: ask the
// input for all k views in ONE call — a sharded input replays its
// generator or reads its file once for the whole process, not once per
// machine — then run the machines built from them through retry.
func execute[M, L, O any](a Algorithm[M, L, O], in partition.Input, k int, on site[M]) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	if k != in.NumMachines() {
		return zero, nil, transport.WireStats{}, fmt.Errorf("%s: cluster k=%d but partition k=%d", a.Name, k, in.NumMachines())
	}
	views, err := in.MachineViews(partition.AllMachines(k))
	if err != nil {
		return zero, nil, transport.WireStats{}, fmt.Errorf("%s: %w", a.Name, err)
	}
	build := func(id core.MachineID) (Machine[M, L], error) { return a.NewMachine(views[id]) }
	return retry(k, build, a.Merge, on)
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
func retry[M, L, O any](k int, build func(core.MachineID) (Machine[M, L], error), merge func([]L) O, on site[M]) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	var total transport.WireStats
	ck := on.ck
	var sink *launchSink
	if ck.Every > 0 {
		sink = &launchSink{CheckpointSink: ck.Sink}
		if sink.CheckpointSink == nil {
			sink.CheckpointSink = core.NewMemorySink(0)
		}
		ck.Sink = sink
	}
	for recoveries := 0; ; recoveries++ {
		machines := make([]Machine[M, L], k)
		for i := range machines {
			m, err := build(core.MachineID(i))
			if err != nil {
				return zero, nil, total, err
			}
			machines[i] = m
		}
		stats, w, err := on.run(func(id core.MachineID) core.Machine[M] { return machines[id] }, ck)
		total = total.Plus(w)
		if err == nil {
			stats.Recoveries = recoveries
			locals := make([]L, k)
			for i, m := range machines {
				locals[i] = m.Output()
			}
			return merge(locals), stats, total, nil
		}
		var me *transport.MachineError
		if sink == nil || !errors.As(err, &me) || (on.ctx != nil && on.ctx.Err() != nil) || recoveries == core.DefaultMaxRecoveries {
			return zero, nil, total, err
		}
		ck.Resume = on.ck.Resume || sink.stored
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

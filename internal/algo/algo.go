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
//   - Run: all k machines in this process, over the link
//     cfg.Transport names: the in-process rendezvous on the loopback,
//     or, for transport.TCP, k socket links (transport/node), every
//     machine with its own listener+dialer on loopback TCP;
//   - NodeRunLocal: Run over transport.TCP (cmd/kmnode -local);
//   - Entry.RunStandalone: ONE machine of a multi-process cluster
//     (cmd/kmnode -id), peers living in other processes.
//
// Every one of them is core.Drive per machine, and all cost accounting
// happens there before envelopes reach a link, so a descriptor's Stats
// and outputs are bit-identical on every substrate — the registry test
// suite asserts exactly that for every registered algorithm. A machine
// is built only by its descriptor's NewMachine; an algorithm whose
// input is not a graph (dsort's keys, routing's probes) runs over an
// EdgelessInput that supplies just the machine identities. All but the
// standalone runner enter through execute and share its one recovery
// loop (retry): a checkpointed run that loses a machine is re-run from
// its newest cut.
//
// The registry half of the package (registry.go) erases the generic
// types behind a name-keyed Entry table so CLIs and table-driven tests
// can enumerate algorithms without knowing their message types.
package algo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// Codec serialises envelope payloads for the socket link
	// (transport/node) and checkpoints; the in-memory loopback ignores it.
	Codec wire.Codec[M]
	// NewMachine builds machine view.Self()'s state from its CSR shard.
	// Every substrate calls it the same way, so a machine's behaviour
	// cannot depend on where it runs, nor on whether its shard came from
	// a generator, a file or a caller's graph.
	NewMachine func(view partition.View) (Machine[M, L], error)
	// Merge folds the k machine-local outputs (in machine-ID order)
	// into the cluster-wide output.
	Merge func(locals []L) O
}

// Run executes the algorithm over the partitioned input, all k machines
// in this process on the link cfg.Transport names, with the
// descriptor's codec. It returns the merged output and the measured
// Stats. The input may be a *partition.VertexPartition of a caller's
// graph or a *partition.ShardedInput; either builds the k CSR shards
// from its source's edge stream in one MachineViews call.
func Run[M, L, O any](a Algorithm[M, L, O], in partition.Input, cfg core.Config) (O, *core.Stats, error) {
	var zero O
	views, err := machineViews(a.Name, in, cfg.K, partition.AllMachines(cfg.K))
	if err != nil {
		return zero, nil, err
	}
	out, stats, _, err := execute(a, views, inProcess(cfg, a.Codec, nil, 0))
	return out, stats, err
}

// NodeRunLocal is Run over transport.TCP, whatever cfg.Transport says:
// every machine with its own listener and dialer on loopback TCP, every
// node ruling each superstep itself (cmd/kmnode -local).
func NodeRunLocal[M, L, O any](a Algorithm[M, L, O], in partition.Input, cfg core.Config) (O, *core.Stats, error) {
	cfg.Transport = transport.TCP
	return Run(a, in, cfg)
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

// inProcess is all k machines in this process on cfg.Transport: the
// in-process rendezvous over the loopback, or, for transport.TCP, k
// socket links — as job 0 on a private loopback mesh (lm == nil,
// kmnode -local), or as job `job` on a standing one, the resident-daemon
// substrate, where the fabric outlives the run and a failed job poisons
// it until the next attempt rebuilds it.
func inProcess[M any](cfg core.Config, codec wire.Codec[M], lm *node.LocalMesh, job uint64) site[M] {
	return site[M]{cfg: cfg,
		run: func(cfg core.Config, machine func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
			switch {
			case lm != nil:
				return node.RunJobLocal(lm, cfg, job, codec, machine)
			case cfg.Transport == transport.TCP:
				return node.RunLocal(cfg, codec, machine)
			}
			stats, err := core.NewCluster(cfg, machine).RunOn(codec)
			return stats, transport.WireStats{}, err
		}}
}

// knownKind rejects a transport kind no link answers to.
func knownKind(kind transport.Kind) error {
	switch kind {
	case transport.Default, transport.InMem, transport.TCP:
		return nil
	}
	return fmt.Errorf("algo: unknown transport kind %q", kind)
}

// machineViews asks the input for the hosted machines' views in ONE
// call — a sharded input runs its generator or reads its file once for
// the whole process, not once per machine — after checking that the
// input is partitioned for the cluster's k.
func machineViews(name string, in partition.Input, k int, hosted []core.MachineID) ([]partition.View, error) {
	if k != in.NumMachines() {
		return nil, fmt.Errorf("%s: cluster k=%d but partition k=%d", name, k, in.NumMachines())
	}
	views, err := in.MachineViews(hosted)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return views, nil
}

// execute is the single run entry of every all-k substrate: run the
// machines built from the k views through retry.
func execute[M, L, O any](a Algorithm[M, L, O], views []partition.View, on site[M]) (O, *core.Stats, transport.WireStats, error) {
	build := func(id core.MachineID) (Machine[M, L], error) { return a.NewMachine(views[id]) }
	return retry(build, a.Merge, on)
}

// retry is recovery, the one loop every all-k runner passes through: it
// refuses an unknown transport kind and a canceled context, constructs
// the k machines (at once, see buildAll, and before any cluster is
// built), runs them on the site, and merges their outputs. A failed
// attempt is retried — with machines rebuilt from the same input,
// against the same sink — when
// the failure is an attributed machine loss (it wraps
// *transport.MachineError), checkpointing is armed, the run context is
// live, and fewer than core.DefaultMaxRecoveries retries have run.
// Panics, cancellation, deadlines, MaxSupersteps and validation errors
// stay final. Every attempt starts as any checkpointed run does: from
// the newest cut of its run (core.CheckpointPolicy.Run) in the sink,
// otherwise from superstep 0. Replay is deterministic, so a recovered
// run's output and Stats are bit-identical to an unkilled one's;
// Stats.Recoveries counts the retries and WireStats total every
// attempt's bytes.
func retry[M, L, O any](build func(core.MachineID) (Machine[M, L], error), merge func([]L) O, on site[M]) (O, *core.Stats, transport.WireStats, error) {
	var zero O
	var total transport.WireStats
	cfg := on.cfg
	if err := knownKind(cfg.Transport); err != nil {
		return zero, nil, total, err
	}
	if cfg.Checkpoint.Every > 0 && cfg.Checkpoint.Sink == nil {
		// One sink for every attempt, so a retry finds the cuts.
		cfg.Checkpoint.Sink = core.NewMemorySink(0)
	}
	if err := canceled(cfg.Context, "before its machines were built"); err != nil {
		return zero, nil, total, err
	}
	for recoveries := 0; ; recoveries++ {
		machines, err := buildAll(build, cfg.K)
		if err != nil {
			return zero, nil, total, err
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
		if cfg.Checkpoint.Every <= 0 || !errors.As(err, &me) || (cfg.Context != nil && cfg.Context.Err() != nil) || recoveries == core.DefaultMaxRecoveries {
			return zero, nil, total, err
		}
	}
}

// buildAll constructs machines 0..k-1 at once, one worker per core
// taking the next ID, then reports the failure of the lowest failing ID
// — the one a build in ID order would have stopped at: its error
// returned, or its panic re-raised here.
func buildAll[M, L any](build func(core.MachineID) (Machine[M, L], error), k int) ([]Machine[M, L], error) {
	machines, errs, panics := make([]Machine[M, L], k), make([]error, k), make([]any, k)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(k, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < k; i = int(next.Add(1) - 1) {
				func() {
					defer func() { panics[i] = recover() }()
					machines[i], errs[i] = build(core.MachineID(i))
				}()
			}
		}()
	}
	wg.Wait()
	for i := range machines {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return machines, nil
}

// canceled is the run context's error, wrapped with where the run
// stopped, once the context is done; nil for a live or absent one.
func canceled(ctx context.Context, where string) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("algo: canceled %s: %w", where, ctx.Err())
}

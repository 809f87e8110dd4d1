// Shard constructors: the partition-local views of each generator
// family for the machines one process hosts, built without ever
// materialising a *graph.Graph. Each runs the SAME canonical edge
// stream as the full constructor in gen.go through a
// partition.LocalBuilder, which routes every edge by the public hash to
// the hosted shard(s) owning an endpoint — so the union of all k shards
// is bit-identical to the full graph by construction, whether they are
// built k at a time or one by one (asserted per generator by the
// shard/full equivalence suite).
//
// Cost note: under a hashed RVP the stream cannot be cut down to a
// machine's rows — an undirected edge {u,v} with u remote and v local is
// decided by row u's RNG, which only running row u reproduces — so a
// process pays O(n+m) generation time however few machines it hosts,
// and O((n+m)/k) retained memory per hosted machine, which is the
// resource the model actually bounds. It pays that time ONCE:
// a process hosting all k machines runs the stream as often as a
// process hosting one. The per-row families (Gnp, DirectedGnp) and the
// structured ones run their stream twice, count then fill, and hold
// nothing per arc in between; Gnm and PreferentialAttachment, whose
// streams sort or carry global state, run once and spool the hosted
// edges between the passes.
package gen

import (
	"fmt"

	"kmachine/internal/core"
	"kmachine/internal/partition"
)

// replayShards builds the hosted shards from a stream that is cheap and
// deterministic to run twice.
func replayShards(ps partition.Spec, hosted []core.MachineID, directed bool, stream func(emit func(u, v int32))) []*partition.LocalView {
	lb := partition.NewLocalBuilder(ps, hosted, directed)
	lb.Replay(stream)
	return lb.Build()
}

// spoolShards builds the hosted shards from one run of a generator
// stream.
func spoolShards(ps partition.Spec, hosted []core.MachineID, stream func(emit func(u, v int32))) []*partition.LocalView {
	lb := partition.NewLocalBuilder(ps, hosted, false)
	lb.Spool(stream)
	return lb.Build()
}

// GnpShards builds the hosted machines' shards of Gnp(ps.N, p, seed).
func GnpShards(ps partition.Spec, p float64, seed uint64, hosted []core.MachineID) []*partition.LocalView {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: GnpShards probability %v out of [0,1]", p))
	}
	return replayShards(ps, hosted, false, func(emit func(u, v int32)) { gnpStream(ps.N, p, seed, emit) })
}

// GnpShard builds machine m's shard of Gnp(ps.N, p, seed): GnpShards
// for a set of one.
func GnpShard(ps partition.Spec, p float64, seed uint64, m core.MachineID) *partition.LocalView {
	return GnpShards(ps, p, seed, []core.MachineID{m})[0]
}

// DirectedGnpShards builds the hosted machines' shards of
// DirectedGnp(ps.N, p, seed).
func DirectedGnpShards(ps partition.Spec, p float64, seed uint64, hosted []core.MachineID) []*partition.LocalView {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: DirectedGnpShards probability %v out of [0,1]", p))
	}
	return replayShards(ps, hosted, true, func(emit func(u, v int32)) {
		if p <= 0 {
			return
		}
		for u := 0; u < ps.N; u++ {
			directedGnpRow(ps.N, p, seed, int32(u), func(v int32) { emit(int32(u), v) })
		}
	})
}

// GnmShards builds the hosted machines' shards of Gnm(ps.N, mEdges, seed).
func GnmShards(ps partition.Spec, mEdges int, seed uint64, hosted []core.MachineID) []*partition.LocalView {
	maxM := ps.N * (ps.N - 1) / 2
	if mEdges > maxM {
		panic(fmt.Sprintf("gen: GnmShards wants %d edges but K_%d has only %d", mEdges, ps.N, maxM))
	}
	return spoolShards(ps, hosted, func(emit func(u, v int32)) { gnmStream(ps.N, mEdges, seed, emit) })
}

// StarShards builds the hosted machines' shards of Star(ps.N).
func StarShards(ps partition.Spec, hosted []core.MachineID) []*partition.LocalView {
	return replayShards(ps, hosted, false, func(emit func(u, v int32)) {
		for v := 1; v < ps.N; v++ {
			emit(0, int32(v))
		}
	})
}

// PathShards builds the hosted machines' shards of Path(ps.N).
func PathShards(ps partition.Spec, hosted []core.MachineID) []*partition.LocalView {
	return replayShards(ps, hosted, false, func(emit func(u, v int32)) {
		for v := 0; v+1 < ps.N; v++ {
			emit(int32(v), int32(v+1))
		}
	})
}

// CycleShards builds the hosted machines' shards of Cycle(ps.N).
func CycleShards(ps partition.Spec, hosted []core.MachineID) []*partition.LocalView {
	if ps.N < 3 {
		panic("gen: CycleShards needs n >= 3")
	}
	return replayShards(ps, hosted, false, func(emit func(u, v int32)) {
		for v := 0; v < ps.N; v++ {
			emit(int32(v), int32((v+1)%ps.N))
		}
	})
}

// PreferentialAttachmentShards builds the hosted machines' shards of
// PreferentialAttachment(ps.N, attach, seed) from one run of the
// canonical attachment stream (the global degree state is inherent to
// the model, but only the hosted rows are retained).
func PreferentialAttachmentShards(ps partition.Spec, attach int, seed uint64, hosted []core.MachineID) []*partition.LocalView {
	if attach < 1 {
		panic("gen: PreferentialAttachmentShards needs attach >= 1")
	}
	return spoolShards(ps, hosted, func(emit func(u, v int32)) { paStream(ps.N, attach, seed, emit) })
}

// GnpInput returns the ShardedInput whose MachineViews replays Gnp once
// into the shards of the machines asked for — the registry's graph
// input, the partition-local counterpart of NewRVP(Gnp(n, p, seed), k,
// pseed).
func GnpInput(ps partition.Spec, p float64, seed uint64) *partition.ShardedInput {
	return &partition.ShardedInput{
		Spec: ps,
		BuildShards: func(hosted []core.MachineID) ([]*partition.LocalView, error) {
			return GnpShards(ps, p, seed, hosted), nil
		},
	}
}

// EdgelessInput returns the ShardedInput for problems whose graph is
// empty (dsort, routing): each machine's shard is just its local vertex
// set.
func EdgelessInput(ps partition.Spec) *partition.ShardedInput {
	return &partition.ShardedInput{
		Spec: ps,
		BuildShards: func(hosted []core.MachineID) ([]*partition.LocalView, error) {
			return partition.NewLocalBuilder(ps, hosted, false).Build(), nil
		},
	}
}

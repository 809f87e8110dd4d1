// Golden determinism tests: a run is a pure function of (machines,
// Config), so Stats and outputs at a fixed seed must be bit-identical
// across engine rewrites — this is the regression fence for "strict
// behavioral equivalence" across perf work. The constants below were
// re-recorded when gen.Gnp moved to its per-row canonical form
// (row-seeded geometric skipping, the definition shard generation
// replays): the generated graph at a given seed legitimately changed
// then, and the sharded/full equivalence suite extends the fence across
// input paths. The graph-free dsort goldens still date to PR 1.
package kmachine_test

import (
	"hash/fnv"
	"math"
	"testing"

	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/gen"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/triangle"
)

func hashU64s(t *testing.T, xs []uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	for _, u := range xs {
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkStats(t *testing.T, s *core.Stats, rounds, messages, words, maxRecv int64, supersteps int) {
	t.Helper()
	if s.Rounds != rounds || s.Supersteps != supersteps || s.Messages != messages ||
		s.Words != words || s.MaxRecvWords != maxRecv {
		t.Errorf("stats = Rounds=%d Supersteps=%d Messages=%d Words=%d MaxRecvWords=%d,\nwant     Rounds=%d Supersteps=%d Messages=%d Words=%d MaxRecvWords=%d",
			s.Rounds, s.Supersteps, s.Messages, s.Words, s.MaxRecvWords,
			rounds, supersteps, messages, words, maxRecv)
	}
}

func TestGoldenPageRank(t *testing.T) {
	g := gen.Gnp(500, 0.02, 1)
	p := partition.NewRVP(g, 8, 2)
	opts := pagerank.AlgorithmOne(0.15)
	opts.Tokens, opts.Iterations = 4, 12
	res, err := pagerank.Run(p, core.Config{K: 8, Bandwidth: core.DefaultBandwidth(500), Seed: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, res.Stats, 52, 6610, 13220, 1924, 12)
	est := make([]uint64, len(res.Estimate))
	for i, x := range res.Estimate {
		est[i] = math.Float64bits(x)
	}
	if h := hashU64s(t, est); h != 0xa7dda344efb07938 {
		t.Errorf("Estimate hash = %#x, want 0xa7dda344efb07938", h)
	}
	psi := make([]uint64, len(res.Psi))
	for i, x := range res.Psi {
		psi[i] = uint64(x)
	}
	if h := hashU64s(t, psi); h != 0x1b274d89ccff875b {
		t.Errorf("Psi hash = %#x, want 0x1b274d89ccff875b", h)
	}
}

func TestGoldenDistributedSort(t *testing.T) {
	in := dsort.RandomInput(3000, 8, 1, dsort.UniformKeys)
	res, err := dsort.Run(in, core.Config{K: 8, Bandwidth: 8, Seed: 3}, 64)
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, res.Stats, 22, 7224, 7224, 914, 6)
	var flat []uint64
	for _, blk := range res.Blocks {
		flat = append(flat, blk...)
	}
	if h := hashU64s(t, flat); h != 0x8276147cfa083e13 {
		t.Errorf("Blocks hash = %#x, want 0x8276147cfa083e13", h)
	}
	if res.RebalancedKeys != 212 {
		t.Errorf("RebalancedKeys = %d, want 212", res.RebalancedKeys)
	}
}

func TestGoldenTriangle(t *testing.T) {
	g := gen.Gnp(96, 0.5, 1)
	p := partition.NewRVP(g, 8, 2)
	res, err := triangle.Run(p, core.Config{K: 8, Bandwidth: core.DefaultBandwidth(96), Seed: 3}, triangle.AlgorithmOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, res.Stats, 90, 10229, 20458, 3694, 3)
	if res.Count != 19148 {
		t.Errorf("Count = %d, want 19148", res.Count)
	}
}

func TestGoldenConnComp(t *testing.T) {
	g := gen.Gnp(400, 0.01, 1)
	p := partition.NewRVP(g, 8, 2)
	res, err := conncomp.Run(p, core.Config{K: 8, Bandwidth: core.DefaultBandwidth(400), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, res.Stats, 31, 4149, 8298, 1222, 6)
	lbl := make([]uint64, len(res.Label))
	for i, l := range res.Label {
		lbl[i] = uint64(int64(l))
	}
	if h := hashU64s(t, lbl); h != 0x8ba2e1fc22a9b1d4 {
		t.Errorf("Label hash = %#x, want 0x8ba2e1fc22a9b1d4", h)
	}
	if res.Components != 7 {
		t.Errorf("Components = %d, want 7", res.Components)
	}
}

// TestGoldenDropPerSuperstep: the retention knob must change nothing
// except PerSuperstep itself.
func TestGoldenDropPerSuperstep(t *testing.T) {
	g := gen.Gnp(500, 0.02, 1)
	p := partition.NewRVP(g, 8, 2)
	opts := pagerank.AlgorithmOne(0.15)
	opts.Tokens, opts.Iterations = 4, 12
	res, err := pagerank.Run(p, core.Config{K: 8, Bandwidth: core.DefaultBandwidth(500), Seed: 3, DropPerSuperstep: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, res.Stats, 52, 6610, 13220, 1924, 12)
	if res.Stats.PerSuperstep != nil {
		t.Errorf("DropPerSuperstep run retained %d per-superstep stats", len(res.Stats.PerSuperstep))
	}
}

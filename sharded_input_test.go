package kmachine_test

// Partition-local input equivalence: how a machine came to hold its
// adjacency rows must be invisible to the algorithms. The registry
// builds every machine's CSR shard from an edge stream — the
// generator's canonical per-row stream, or an edge-list file — and no
// process holds the whole graph (§1.1: the vertices are distributed by
// the random hash partition *before* the computation starts). The
// oracle is the library path for caller-supplied graphs, which
// materialises the graph and replays its edges into the shards: both
// must produce deeply equal outputs and identical Stats.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/triangle"
)

// testdata/sample_edges.txt is Gnp(shardN, shardP, shardSeed) written
// by gen.WriteEdgeList, so one materialised graph is the oracle for the
// generator source and the file source alike.
const (
	shardN    = 300
	shardP    = 0.03
	shardK    = 8
	shardSeed = 9
)

func TestShardedInputMatchesMaterialisedGraph(t *testing.T) {
	t.Run("pagerank", func(t *testing.T) {
		shardsMatchGraph(t, pagerank.Descriptor(shardN, pagerank.AlgorithmOne(0.15)))
	})
	t.Run("triangle", func(t *testing.T) {
		shardsMatchGraph(t, triangle.Descriptor(shardK, triangle.AlgorithmOptions()))
	})
	t.Run("conncomp", func(t *testing.T) {
		shardsMatchGraph(t, conncomp.Descriptor(shardN))
	})
}

func shardsMatchGraph[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O]) {
	spec := partition.Spec{N: shardN, K: shardK, Seed: shardSeed + 1}
	cfg := core.Config{K: shardK, Bandwidth: core.DefaultBandwidth(shardN), Seed: shardSeed + 2}
	want, wantStats, err := algo.Run(a, partition.NewRVP(gen.Gnp(shardN, shardP, shardSeed), shardK, spec.Seed), cfg)
	if err != nil {
		t.Fatalf("materialised run: %v", err)
	}
	for _, src := range []struct {
		name string
		in   *partition.ShardedInput
	}{
		{"generator", gen.GnpInput(spec, shardP, shardSeed)},
		{"edge list", gen.EdgeListInput("testdata/sample_edges.txt", spec, false)},
	} {
		got, gotStats, err := algo.Run(a, src.in, cfg)
		if err != nil {
			t.Fatalf("%s shards: %v", src.name, err)
		}
		sameStats(t, src.name+" shards vs materialised graph", gotStats, wantStats)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s shards: output differs from the materialised graph's", src.name)
		}
	}
}

// TestRegistryEdgeListMatchesGenerator drives the file source through
// the registry itself: a Problem with InputPath set runs to the Stats
// and output hash of the generated Problem the file was written from,
// with the ingest charged to SetupTime.
func TestRegistryEdgeListMatchesGenerator(t *testing.T) {
	base := algo.Problem{N: shardN, EdgeP: shardP, K: shardK, Seed: shardSeed}
	fromFile := base
	fromFile.InputPath = "testdata/sample_edges.txt"
	for _, name := range []string{"pagerank", "triangle", "conncomp"} {
		t.Run(name, func(t *testing.T) {
			entry, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("registry has no %q", name)
			}
			want, err := entry.Run(base, transport.InMem)
			if err != nil {
				t.Fatalf("generator run: %v", err)
			}
			got, err := entry.Run(fromFile, transport.InMem)
			if err != nil {
				t.Fatalf("file run: %v", err)
			}
			sameStats(t, "file vs generator", got.Stats, want.Stats)
			if got.Hash != want.Hash {
				t.Errorf("output hash from file %016x, from generator %016x", got.Hash, want.Hash)
			}
			if got.SetupTime <= 0 || got.ExecTime <= 0 {
				t.Errorf("file run recorded setup %v, exec %v; want both positive", got.SetupTime, got.ExecTime)
			}
		})
	}
}

// TestShardedConnectivityGolden pins connectivity over generated shards
// on the socket link black-box, as kmnode -local 8 -algo conncomp -n
// 20000 -seed 5 prints it: model accounting, summary and output hash.
// The shard path has no materialised oracle at this size, so a change
// in how a stream becomes shards — an edge dropped, a row misplaced —
// shows here as a changed hash or Stats.
func TestShardedConnectivityGolden(t *testing.T) {
	entry, ok := algo.Lookup("conncomp")
	if !ok {
		t.Fatal("registry has no conncomp")
	}
	out, err := entry.Run(algo.Problem{N: 20000, K: 8, Seed: 5}, transport.TCP)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats
	got := fmt.Sprintf("rounds=%d supersteps=%d messages=%d words=%d maxRecvWords=%d",
		st.Rounds, st.Supersteps, st.Messages, st.Words, st.MaxRecvWords)
	if want := "rounds=615 supersteps=4 messages=210839 words=421678 maxRecvWords=53350"; got != want {
		t.Errorf("stats %s, want %s", got, want)
	}
	if want := "conncomp: 3 components over 20000 vertices in 4 phases"; !slices.Contains(out.Summary, want) {
		t.Errorf("summary %q, want the line %q", out.Summary, want)
	}
	if out.Hash != 0x846a017509336afc {
		t.Errorf("output hash %016x, want 846a017509336afc", out.Hash)
	}
}

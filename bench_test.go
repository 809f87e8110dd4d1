// Benchmarks regenerating every experiment in DESIGN.md's index: one
// BenchmarkF1/E1..E18 per paper claim (run `go test -bench=. -benchmem`),
// plus micro-benchmarks for the core algorithms at several (n, k)
// operating points. cmd/kmbench prints the corresponding tables; these
// benchmarks time the same code paths under the Go benchmark harness.
package kmachine_test

import (
	"fmt"
	"testing"

	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/experiments"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
	"kmachine/internal/transport"
	"kmachine/internal/triangle"
)

// benchExperiment runs one experiment table per iteration (quick sizes).
func benchExperiment(b *testing.B, id string) {
	var runner *experiments.Runner
	for _, r := range experiments.All() {
		if r.ID == id {
			rr := r
			runner = &rr
			break
		}
	}
	if runner == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner.Run(experiments.Config{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkF1_LowerBoundGraph(b *testing.B)   { benchExperiment(b, "F1") }
func BenchmarkE1_PageRank(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2_Triangles(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3_Separation(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4_RevealedPaths(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5_CongestedClique(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6_MessageComplexity(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7_RandomRouting(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8_Sorting(b *testing.B)           { benchExperiment(b, "E8") }
func BenchmarkE9_InducedEdges(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10_Balance(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_REPConversion(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12_OpenTriads(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13_SparseCrossover(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14_Ablations(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15_GLBTGap(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16_Connectivity(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkE17_InfoCost(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkE18_Cliques4(b *testing.B)         { benchExperiment(b, "E18") }

// --- micro-benchmarks: the algorithms at individual operating points ---

func BenchmarkPageRankAlgorithm1(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("gnp/n=2000/k=%d", k), func(b *testing.B) {
			g := gen.Gnp(2000, 0.006, 1)
			p := partition.NewRVP(g, k, 2)
			opts := pagerank.AlgorithmOne(0.15)
			opts.Tokens, opts.Iterations = 8, 30
			cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 3}
			b.ReportAllocs()
			b.ResetTimer()
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := pagerank.Run(p, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

func BenchmarkPageRankBaseline(b *testing.B) {
	for _, k := range []int{16, 32} {
		b.Run(fmt.Sprintf("gnp/n=2000/k=%d", k), func(b *testing.B) {
			g := gen.Gnp(2000, 0.006, 1)
			p := partition.NewRVP(g, k, 2)
			opts := pagerank.ConversionBaseline(0.15)
			opts.Tokens, opts.Iterations = 8, 30
			cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 3}
			b.ReportAllocs()
			b.ResetTimer()
			var rounds int64
			for i := 0; i < b.N; i++ {
				res, err := pagerank.Run(p, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkPageRankAlgorithm1TCP is the end-to-end benchmark of the
// real-deployment path: the same PageRank workload as above, but every
// envelope crossing the socket link's connections through the persistent
// exchange pipeline (encode, frame, decode, inbox assembly). The
// gap to BenchmarkPageRankAlgorithm1 is the total substrate cost. It
// reports supersteps beside rounds: one per walk iteration, each a
// frame per link.
func BenchmarkPageRankAlgorithm1TCP(b *testing.B) {
	for _, k := range []int{8, 16} {
		b.Run(fmt.Sprintf("gnp/n=2000/k=%d", k), func(b *testing.B) {
			g := gen.Gnp(2000, 0.006, 1)
			p := partition.NewRVP(g, k, 2)
			opts := pagerank.AlgorithmOne(0.15)
			opts.Tokens, opts.Iterations = 8, 30
			cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 3,
				Transport: transport.TCP}
			b.ReportAllocs()
			b.ResetTimer()
			var stats *core.Stats
			for i := 0; i < b.N; i++ {
				res, err := pagerank.Run(p, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.Rounds), "rounds")
			b.ReportMetric(float64(stats.Supersteps), "supersteps")
		})
	}
}

func BenchmarkTriangleAlgorithm(b *testing.B) {
	cases := []struct {
		name string
		n    int
		p    float64
		ks   []int
	}{
		{"gnhalf/n=192", 192, 0.5, []int{8, 27, 64}},
		// The shape of benchmark workload triangle-inmem-dense.
		{"dense/n=2000/p=0.12", 2000, 0.12, []int{27}},
	}
	for _, tc := range cases {
		g := gen.Gnp(tc.n, tc.p, 1)
		for _, k := range tc.ks {
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				p := partition.NewRVP(g, k, 2)
				cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 3}
				b.ReportAllocs()
				b.ResetTimer()
				var rounds int64
				for i := 0; i < b.N; i++ {
					res, err := triangle.Run(p, cfg, triangle.AlgorithmOptions())
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Stats.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

func BenchmarkTriangleBaseline(b *testing.B) {
	g := gen.Gnp(192, 0.5, 1)
	p := partition.NewRVP(g, 27, 2)
	cfg := core.Config{K: 27, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := triangle.RunBaseline(p, cfg, triangle.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCongestedClique(b *testing.B) {
	g := gen.Gnp(125, 0.5, 1)
	p := partition.NewIdentity(g)
	cfg := core.Config{K: g.N(), Bandwidth: 1, Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := triangle.Run(p, cfg, triangle.AlgorithmOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedSort(b *testing.B) {
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("n=20000/k=%d", k), func(b *testing.B) {
			in := dsort.RandomInput(20000, k, 1, dsort.UniformKeys)
			cfg := core.Config{K: k, Bandwidth: 8, Seed: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dsort.Run(in, cfg, 128); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedSortTCP is the socket-link twin of
// BenchmarkDistributedSort, as BenchmarkPageRankAlgorithm1TCP is for
// PageRank: few supersteps, every key crossing a socket link twice in a
// handful of large frames — the bulk use of wire+tcp, where B/op (bytes
// allocated per 8-byte key moved) is the number to watch next to the
// small-frame benchmarks' allocs/op.
func BenchmarkDistributedSortTCP(b *testing.B) {
	const n, k = 200000, 8
	in := dsort.RandomInput(n, k, 1, dsort.UniformKeys)
	cfg := core.Config{K: k, Bandwidth: 8, Seed: 3, Transport: transport.TCP}
	b.ReportAllocs()
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsort.Run(in, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnCompTCP is connectivity over the socket link: G(n,
// 12/n) at k = 8, the benchmark's conncomp problem at a fifth of its
// size, with every label that fell crossing the link's connections — a
// few mid-sized frames per superstep, between the PageRank and sort
// shapes above.
func BenchmarkConnCompTCP(b *testing.B) {
	const n, k = 20000, 8
	g := gen.Gnp(n, 12.0/n, 1)
	p := partition.NewRVP(g, k, 2)
	cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(n), Seed: 3, Transport: transport.TCP}
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := conncomp.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkRandomRouting(b *testing.B) {
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("k=%d/x=2048", k), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := routing.RandomRouteExperiment(k, 2048, 4, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSequentialTriangleEnum(b *testing.B) {
	g := gen.Gnp(400, 0.5, 1)
	b.ReportAllocs()
	var count int64
	for i := 0; i < b.N; i++ {
		count = g.CountTriangles()
	}
	b.ReportMetric(float64(count), "triangles")
}

func BenchmarkSequentialPageRank(b *testing.B) {
	g := gen.DirectedGnp(2000, 0.006, 1)
	opts := graph.DefaultPageRankOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = graph.PowerIterationPageRank(g, opts)
	}
}

func BenchmarkGnpGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gen.Gnp(10000, 0.01, uint64(i))
	}
}

func BenchmarkRVPPartition(b *testing.B) {
	g := gen.Gnp(10000, 0.002, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = partition.NewRVP(g, 32, uint64(i))
	}
}

package kmachine_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"kmachine"
)

func TestFacadePageRank(t *testing.T) {
	g := kmachine.DirectedGnp(200, 0.03, 1)
	p := kmachine.RandomVertexPartition(g, 8, 2)
	res, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimate) != g.N() {
		t.Fatalf("got %d estimates, want %d", len(res.Estimate), g.N())
	}
	if res.Stats.Rounds <= 0 {
		t.Error("no rounds measured")
	}
}

// TestFacadePageRankCheckpointed: arming checkpoints from the public
// API changes no estimate and no Stats field.
func TestFacadePageRankCheckpointed(t *testing.T) {
	g := kmachine.DirectedGnp(200, 0.03, 1)
	p := kmachine.RandomVertexPartition(g, 8, 2)
	want, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 3,
		RunConfig: kmachine.RunConfig{CheckpointEvery: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Estimate, want.Estimate) {
		t.Error("checkpointed run's estimates differ from the unarmed run's")
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("checkpointed run's Stats differ:\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
}

func TestFacadePageRankBaselineSlower(t *testing.T) {
	g := kmachine.Star(1500)
	p := kmachine.RandomVertexPartition(g, 32, 4)
	fast, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 5, Tokens: 16})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 5, Tokens: 16, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Stats.Rounds <= fast.Stats.Rounds {
		t.Errorf("baseline (%d rounds) not slower than Algorithm 1 (%d rounds)",
			slow.Stats.Rounds, fast.Stats.Rounds)
	}
}

func TestFacadeTriangles(t *testing.T) {
	g := kmachine.Gnp(120, 0.3, 7)
	p := kmachine.RandomVertexPartition(g, 27, 8)
	res, err := kmachine.Triangles(p, kmachine.TriangleConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != g.CountTriangles() {
		t.Errorf("distributed count %d, sequential %d", res.Count, g.CountTriangles())
	}
	base, err := kmachine.Triangles(p, kmachine.TriangleConfig{Seed: 9, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Count != res.Count {
		t.Errorf("baseline count %d differs from algorithm count %d", base.Count, res.Count)
	}
}

func TestFacadeOpenTriads(t *testing.T) {
	g := kmachine.Gnp(80, 0.1, 11)
	p := kmachine.RandomVertexPartition(g, 8, 12)
	res, err := kmachine.OpenTriads(p, kmachine.TriangleConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != g.CountTriads() {
		t.Errorf("distributed triads %d, sequential %d", res.Count, g.CountTriads())
	}
}

func TestFacadeCliques4(t *testing.T) {
	g := kmachine.Gnp(60, 0.4, 23)
	p := kmachine.RandomVertexPartition(g, 16, 24)
	res, err := kmachine.Cliques4(p, kmachine.TriangleConfig{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != g.CountCliques4() {
		t.Errorf("distributed 4-cliques %d, sequential %d", res.Count, g.CountCliques4())
	}
}

func TestFacadeSort(t *testing.T) {
	res, err := kmachine.Sort(3000, 8, 0, 14)
	if err != nil {
		t.Fatal(err)
	}
	var prevMax uint64
	total := 0
	for i, block := range res.Blocks {
		if !sort.SliceIsSorted(block, func(a, b int) bool { return block[a] < block[b] }) {
			t.Fatalf("block %d not sorted", i)
		}
		if len(block) > 0 {
			if block[0] < prevMax {
				t.Fatalf("block %d overlaps previous block", i)
			}
			prevMax = block[len(block)-1]
		}
		total += len(block)
	}
	if total != 3000 {
		t.Errorf("blocks hold %d keys, want 3000", total)
	}
}

func TestFacadeComponents(t *testing.T) {
	g := kmachine.Gnp(300, 0.03, 15)
	p := kmachine.RandomVertexPartition(g, 8, 16)
	res, err := kmachine.ConnectedComponents(p, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components < 1 {
		t.Error("no components found")
	}
}

func TestFacadeCongestedClique(t *testing.T) {
	g := kmachine.Gnp(64, 0.5, 18)
	p := kmachine.CongestedCliquePartition(g)
	res, err := kmachine.Triangles(p, kmachine.TriangleConfig{Bandwidth: 1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != g.CountTriangles() {
		t.Errorf("clique count %d, sequential %d", res.Count, g.CountTriangles())
	}
}

func TestFacadeBounds(t *testing.T) {
	pr := kmachine.PageRankLowerBound(10000, 10, 16)
	tr := kmachine.TriangleLowerBound(1000, 27, 16, 0)
	st := kmachine.SortingLowerBound(10000, 10, 16)
	for _, b := range []kmachine.Bound{pr, tr, st} {
		if b.Rounds <= 0 || math.IsNaN(b.Rounds) {
			t.Errorf("bound %s has invalid rounds %v", b.Problem, b.Rounds)
		}
		if b.IC > b.HZ {
			t.Errorf("bound %s: IC %g exceeds H[Z] %g", b.Problem, b.IC, b.HZ)
		}
	}
}

func TestFacadeSequentialPageRankAgrees(t *testing.T) {
	g := kmachine.DirectedGnp(150, 0.05, 20)
	p := kmachine.RandomVertexPartition(g, 8, 21)
	res, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 22, Tokens: 256, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	truth := kmachine.SequentialPageRank(g, 0.2)
	// Rank correlation on the top vertices: the highest-truth vertex
	// should be near the top of the estimates.
	best := 0
	for v := range truth {
		if truth[v] > truth[best] {
			best = v
		}
	}
	higher := 0
	for v := range res.Estimate {
		if res.Estimate[v] > res.Estimate[best] {
			higher++
		}
	}
	if higher > g.N()/10 {
		t.Errorf("true top vertex ranked %d-th by estimates", higher+1)
	}
}

package triangle

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
)

// randomEdgeMultiset draws edges over a small pool of IDs, a quarter of
// them just below MaxInt32, so duplicates, reversed duplicates and
// self-loops are all common and the ID space is mostly holes.
func randomEdgeMultiset(r *rng.RNG) [][2]int32 {
	pool := make([]int32, 3+r.Intn(30))
	for i := range pool {
		pool[i] = int32(r.Intn(200))
		if r.Intn(4) == 0 {
			pool[i] = math.MaxInt32 - int32(r.Intn(50))
		}
	}
	edges := make([][2]int32, r.Intn(300))
	for i := range edges {
		edges[i] = [2]int32{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}
	}
	return edges
}

// bruteAdjacency is the set-of-sets the index is checked against.
func bruteAdjacency(edges [][2]int32) map[int32]map[int32]bool {
	adj := map[int32]map[int32]bool{}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		for _, d := range [][2]int32{e, {e[1], e[0]}} {
			if adj[d[0]] == nil {
				adj[d[0]] = map[int32]bool{}
			}
			adj[d[0]][d[1]] = true
		}
	}
	return adj
}

func TestEdgeIndexMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		edges := randomEdgeMultiset(r)
		c := 1 + r.Intn(4)
		adj := bruteAdjacency(edges)
		var wantIDs []int32
		for v := range adj {
			wantIDs = append(wantIDs, v)
		}
		slices.Sort(wantIDs)
		for _, symmetric := range []bool{false, true} {
			ix := newEdgeIndex(edges, symmetric, seed, c)
			if !slices.Equal(ix.ids, wantIDs) {
				t.Fatalf("seed %d symmetric=%v: ids %v, want %v", seed, symmetric, ix.ids, wantIDs)
			}
			if len(ix.off) != len(ix.ids)+1 || int(ix.off[len(ix.ids)]) != len(ix.nbr) {
				t.Fatalf("seed %d symmetric=%v: offsets %v do not cover %d neighbours", seed, symmetric, ix.off, len(ix.nbr))
			}
			for i, u := range ix.ids {
				if want := int32(colorOf(seed, u, c)); ix.color[i] != want {
					t.Fatalf("seed %d: color of %d is %d, want %d", seed, u, ix.color[i], want)
				}
				var want []int32
				for v := range adj[u] {
					if symmetric || v > u {
						want = append(want, v)
					}
				}
				slices.Sort(want)
				var got []int32
				for _, j := range ix.row(int32(i)) {
					got = append(got, ix.ids[j])
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d symmetric=%v: row of %d is %v, want %v", seed, symmetric, u, got, want)
				}
				for j, v := range ix.ids {
					if (symmetric || j > i) && ix.has(int32(i), int32(j)) != adj[u][v] {
						t.Fatalf("seed %d symmetric=%v: has(%d,%d) = %v", seed, symmetric, u, v, !adj[u][v])
					}
				}
			}
		}
	}
}

// TestEdgeIndexTrianglesPartitionByColor: over every color triple, the
// walk reports each triangle of the multiset exactly once, under the
// triple its ID-sorted vertices carry, and in lexicographic order.
func TestEdgeIndexTrianglesPartitionByColor(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		edges := randomEdgeMultiset(r)
		c := 1 + r.Intn(3)
		adj := bruteAdjacency(edges)
		ix := newEdgeIndex(edges, false, seed, c)
		want := map[[3]int][]graph.Triangle{}
		for _, u := range ix.ids { // ascending, so each bucket fills in lexicographic order
			for _, v := range ix.ids {
				for _, w := range ix.ids {
					if u < v && v < w && adj[u][v] && adj[u][w] && adj[v][w] {
						key := [3]int{colorOf(seed, u, c), colorOf(seed, v, c), colorOf(seed, w, c)}
						want[key] = append(want[key], graph.Triangle{A: u, B: v, C: w})
					}
				}
			}
		}
		for c1 := 0; c1 < c; c1++ {
			for c2 := 0; c2 < c; c2++ {
				for c3 := 0; c3 < c; c3++ {
					var got []graph.Triangle
					ix.triangles(c1, c2, c3, func(tr graph.Triangle) { got = append(got, tr) })
					if !slices.Equal(got, want[[3]int{c1, c2, c3}]) {
						t.Fatalf("seed %d triple (%d,%d,%d): got %v, want %v", seed, c1, c2, c3, got, want[[3]int{c1, c2, c3}])
					}
				}
			}
		}
	}
}

// TestWalksMatchOracleAcrossColorCounts runs all four walks against the
// sequential enumerators for c = 1..4, on cubes (fourth powers) and on
// k in between, where the machines past c³ (c⁴) only relay.
func TestWalksMatchOracleAcrossColorCounts(t *testing.T) {
	g := gen.Gnp(70, 0.3, 5)
	wantTri, wantTriSum := graph.TriangleChecksum(g.Triangles())
	var triads []graph.Triad
	g.EnumerateTriads(func(tr graph.Triad) bool { triads = append(triads, tr); return true })
	wantTriads, wantTriadSum := graph.TriadChecksum(triads)
	wantK4, wantK4Sum := graph.Clique4Checksum(g.Cliques4())

	for _, k := range []int{5, 8, 12, 27, 30, 64, 70} { // c = 1, 2, 2, 3, 3, 4, 4
		p := partition.NewRVP(g, k, uint64(k))
		cfg := core.Config{K: k, Bandwidth: 4, Seed: uint64(k) + 1}
		for _, proxies := range []bool{true, false} {
			opts := Options{Proxies: proxies, HeavyDesignation: true}
			res, err := Run(p, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != wantTri || res.Checksum != wantTriSum {
				t.Errorf("k=%d proxies=%v: triangles %d/%x, want %d/%x", k, proxies, res.Count, res.Checksum, wantTri, wantTriSum)
			}
			opts.Triads = true
			if res, err = Run(p, cfg, opts); err != nil {
				t.Fatal(err)
			}
			if res.Count != wantTriads || res.Checksum != wantTriadSum {
				t.Errorf("k=%d proxies=%v: triads %d/%x, want %d/%x", k, proxies, res.Count, res.Checksum, wantTriads, wantTriadSum)
			}
		}
	}
	for _, k := range []int{5, 16, 20, 81, 90, 256} { // c = 1, 2, 2, 3, 3, 4
		p := partition.NewRVP(g, k, uint64(k))
		for _, proxies := range []bool{true, false} {
			res, err := RunCliques4(p, core.Config{K: k, Bandwidth: 4, Seed: uint64(k) + 1}, Options{Proxies: proxies, HeavyDesignation: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != wantK4 || res.Checksum != wantK4Sum {
				t.Errorf("k=%d proxies=%v: 4-cliques %d/%x, want %d/%x", k, proxies, res.Count, res.Checksum, wantK4, wantK4Sum)
			}
		}
	}
	for _, n := range []int{7, 20, 40, 70} { // the baseline's c = ⌊n^{1/3}⌋ = 1, 2, 3, 4
		g := gen.Gnp(n, 0.4, uint64(n))
		res, err := RunBaseline(partition.NewRVP(g, 6, 3), core.Config{K: 6, Bandwidth: 4, Seed: 9}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want, wantSum := graph.TriangleChecksum(g.Triangles()); res.Count != want || res.Checksum != wantSum {
			t.Errorf("baseline n=%d (c=%d): %d/%x, want %d/%x", n, res.Colors, res.Count, res.Checksum, want, wantSum)
		}
	}
}

// TestCollectOrderIsReproducible: two identical runs return the same
// collected output in the same order — no sorting by the caller. Every
// enumerator used to range over a Go map, so the order differed run to
// run (and with it a checkpoint blob taken with Options.Collect).
func TestCollectOrderIsReproducible(t *testing.T) {
	g := gen.Gnp(80, 0.3, 21)
	p := partition.NewRVP(g, 27, 23)
	cfg := core.Config{K: 27, Bandwidth: 8, Seed: 25}
	opts := AlgorithmOptions()
	opts.Collect = true
	triadOpts := opts
	triadOpts.Triads = true
	must := func(r *Result, err error) *Result {
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, collected := range map[string]func() any{
		"triangles": func() any { return must(Run(p, cfg, opts)).Triangles },
		"triads":    func() any { return must(Run(p, cfg, triadOpts)).Triads },
		"baseline":  func() any { return must(RunBaseline(p, cfg, opts)).Triangles },
		"4-cliques": func() any {
			r, err := RunCliques4(p, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			return r.Cliques
		},
	} {
		a, b := collected(), collected()
		if reflect.ValueOf(a).Len() == 0 {
			t.Fatalf("%s: nothing collected", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two identical runs collected their output in different orders", name)
		}
	}
}

// TestTriangleBytesPerEdge is the allocation fence of the triangle data
// path, in bytes allocated per final edge delivered to a triple machine
// (every copy of an edge counts once). Each row names the layer a
// regression sits in: an outbox or edge list grown by append from nil
// shows in the first, a map-of-slices or comparator sort in the second,
// a per-pair scratch slice in the third. Budgets sit 7–30 % above
// today's 36.4 / 22.5 / 4.6 / 92.8: the superstep-1 outbox holds just
// the edges its machine ships (39.7 when it was sized by the degree
// sum), and each shipped edge yields only 3c − 2 deliveries.
// Before the kernel the end-to-end row read ≈ 225 B/edge.
func TestTriangleBytesPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("routes and enumerates 420 000 edge copies twice")
	}
	const n, k = 1000, 27
	g := gen.Gnp(n, 0.12, 1)
	p := partition.NewRVP(g, k, 2)
	opts := AlgorithmOptions()
	c := Colors(k)
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}

	// Drive the k routers' route by hand so only its own allocations
	// count: a Step outside a run has no link to emit to, and
	// EmitBuckets' concatenation of the buckets is not the router's.
	routers := make([]*colorRouter, k)
	inbox := make([][]core.Envelope[tmsg], k)
	targets := pairTargets(c, 3)
	for id := range routers {
		r := newColorRouter(p.View(core.MachineID(id)), opts, c, targets)
		r.walk = func() {}
		routers[id] = &r
	}
	var route float64
	var proxied, copies int // superstep 2: edges in at the proxies, final copies out
	for step := 0; step < 4; step++ {
		next := make([][]core.Envelope[tmsg], k)
		for id, r := range routers {
			var out [][]core.Envelope[tmsg]
			ctx := &core.StepContext{Self: core.MachineID(id), K: k, Superstep: step, RNG: rng.NewStream(7, uint64(id))}
			route += allocated(func() { out, _ = r.route(ctx, inbox[id]) })
			if step == 2 {
				for _, e := range inbox[id] {
					if e.Msg.Kind == kindEdgeToProxy {
						proxied++
					}
				}
			}
			// Every bucket is exactly sized, and each starts where the
			// one before it ends: one slab. The end is an address, not a
			// pointer: past the slab's last bucket it points at no object,
			// and the collector rejects such an unsafe.Pointer.
			var end uintptr
			for j, b := range out {
				if cap(b) != len(b) {
					t.Errorf("superstep %d, machine %d: bucket for %d holds %d envelopes in room for %d", step, id, j, len(b), cap(b))
				}
				if len(b) == 0 {
					continue
				}
				start := uintptr(unsafe.Pointer(&b[0]))
				if end != 0 && start != end {
					t.Errorf("superstep %d, machine %d: bucket for %d is not carved from the slab the others share", step, id, j)
				}
				end = start + uintptr(len(b))*unsafe.Sizeof(b[0])
				if step == 2 {
					copies += len(b)
				}
				next[j] = append(next[j], b...)
			}
		}
		inbox = next
	}
	// An edge u < v colored (a, b) goes only to the 3c − 2 triples that
	// hold a before b; a table keyed on the unordered pair would send one
	// with a ≠ b to 6c − 6 (10.3 copies per edge on average here).
	if proxied == 0 || copies != (3*c-2)*proxied {
		t.Errorf("fan-out superstep emitted %d copies of %d proxied edges (%.2f each), want 3c − 2 = %d each",
			copies, proxied, float64(copies)/float64(proxied), 3*c-2)
	}
	var finals, build, walk float64
	for id, r := range routers {
		finals += float64(len(r.edges))
		c1, c2, c3, _ := tripleOf(core.MachineID(id), c)
		var ix *edgeIndex
		build += allocated(func() { ix = newEdgeIndex(r.edges, false, colorSeed, c) })
		walk += allocated(func() { ix.triangles(c1, c2, c3, func(graph.Triangle) {}) })
	}
	total := allocated(func() {
		if _, err := Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(n), Seed: 3}, opts); err != nil {
			t.Fatal(err)
		}
	})

	for _, row := range []struct {
		layer       string
		got, budget float64
	}{
		{"forward/receive path (colorRouter.route: presized buckets and edge list)", route / finals, 39},
		{"kernel build (newEdgeIndex: packed keys, radix scratch, CSR)", build / finals, 26},
		{"walk (edgeIndex.triangles: color-restricted rows, stamps)", walk / finals, 6},
		{"end to end (Run over the in-process link: the three above + core + inmem)", total / finals, 105},
	} {
		t.Logf("%5.1f B/edge (budget %3.0f)  %s", row.got, row.budget, row.layer)
		if row.got > row.budget {
			t.Errorf("%s allocates %.1f B/edge, budget %.0f — a growth chain or a per-row structure is back in this layer",
				row.layer, row.got, row.budget)
		}
	}
}

// BenchmarkEdgeIndex times the local kernel alone — build, then walk —
// on what one distinct-color triple machine receives in the benchmark's
// triangle-inmem-dense workload: the ~160 k edges of G(2000, 0.12) whose
// color pair lies inside its triple, in an order no row is sorted in.
func BenchmarkEdgeIndex(b *testing.B) {
	const c, seed = 3, 0
	var edges [][2]int32
	gen.Gnp(2000, 0.12, 1).Edges(func(u, v int32) bool {
		if colorOf(seed, u, c) != colorOf(seed, v, c) {
			edges = append(edges, [2]int32{u, v})
		}
		return true
	})
	rng.Shuffle(rng.New(1), edges)
	b.ReportAllocs()
	b.ReportMetric(float64(len(edges)), "edges")
	b.ResetTimer()
	var found int
	for i := 0; i < b.N; i++ {
		found = 0
		newEdgeIndex(edges, false, seed, c).triangles(0, 1, 2, func(graph.Triangle) { found++ })
	}
	b.ReportMetric(float64(found), "triangles")
}

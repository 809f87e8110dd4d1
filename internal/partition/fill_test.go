package partition

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"kmachine/internal/graph"
	"kmachine/internal/testutil"
)

// spread returns m distinct pairs over n vertices, {u, u+d mod n} for
// d = 1, 2, … in turn, so consecutive pairs have different tails and no
// row arrives in one piece.
func spread(n, m int) [][2]int32 {
	edges := make([][2]int32, m)
	for i := range edges {
		u := i % n
		edges[i] = [2]int32{int32(u), int32((u + 1 + i/n) % n)}
	}
	return edges
}

func streamOf(edges [][2]int32) func(emit func(u, v int32)) error {
	return func(emit func(u, v int32)) error {
		for _, e := range edges {
			emit(e[0], e[1])
		}
		return nil
	}
}

// TestFillAtChunkBoundaries: the stream reaches the builder in chunks of
// chunkLen edges, so the shards are checked against the full graph's rows
// for streams that end just before, at and just after a chunk boundary,
// and several chunks in — replayed and Once, directed and undirected.
func TestFillAtChunkBoundaries(t *testing.T) {
	const n, k = 400, 5
	for _, m := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7} {
		edges := spread(n, m)
		for _, directed := range []bool{false, true} {
			g := graph.FromEdges(n, directed, edges)
			for _, once := range []bool{false, true} {
				in := &ShardedInput{Spec: Spec{N: n, K: k, Seed: 3}, Directed: directed, Once: once, Stream: streamOf(edges)}
				views, err := in.MachineViews(AllMachines(k))
				if err != nil {
					t.Fatal(err)
				}
				covered := 0
				for _, lv := range views {
					for _, u := range lv.Locals() {
						if !slices.Equal(lv.OutAdj(u), g.Adj(int(u))) || !slices.Equal(lv.InAdj(u), g.InAdj(int(u))) {
							t.Fatalf("m=%d directed=%v once=%v machine %d: row %d is out %v in %v, graph has out %v in %v",
								m, directed, once, lv.Self(), u, lv.OutAdj(u), lv.InAdj(u), g.Adj(int(u)), g.InAdj(int(u)))
						}
					}
					covered += len(lv.Locals())
				}
				if covered != n {
					t.Fatalf("m=%d directed=%v once=%v: shards cover %d vertices, want %d", m, directed, once, covered, n)
				}
			}
		}
	}
}

// TestFailingFillTearsDown: a stream that fails mid-stream — returning
// an error, panicking, or emitting an out-of-range edge, which panics in
// the builder while the stream's goroutine is still chunks ahead —
// reaches the caller as it would on one goroutine: the error wrapped
// with the hosted set, or the same panic value, and only once the stream
// has stopped. Nothing is left running.
func TestFailingFillTearsDown(t *testing.T) {
	const n, k = 400, 4
	edges := spread(n, 10*chunkLen)
	hosted := AllMachines(k)
	panicValue := &struct{ name string }{"stream panic"}
	for _, tc := range []struct {
		name string
		fail func(emit func(u, v int32)) error // runs after 2.5 chunks of edges
		err  error                             // the error the caller must get, or
		says string                            // what its panic must be
	}{
		{name: "error", fail: func(func(u, v int32)) error { return errBoom }, err: errBoom},
		{name: "panic", fail: func(func(u, v int32)) error { panic(panicValue) }},
		{name: "route-panic", fail: func(emit func(u, v int32)) error {
			emit(n, 0)
			return streamOf(edges)(emit)
		}, says: fmt.Sprintf("partition: shard edge (%d,0) out of range [0,%d)", n, n)},
	} {
		for _, once := range []bool{false, true} {
			// A replayed stream fails on its first run (the count) or its
			// second (the fill); a Once stream has only the one.
			for failOn := 1; failOn <= 2 && !(once && failOn == 2); failOn++ {
				name := fmt.Sprintf("%s once=%v run %d", tc.name, once, failOn)
				base := runtime.NumGoroutine()
				runs := 0
				var running atomic.Int32
				in := &ShardedInput{Spec: Spec{N: n, K: k, Seed: 3}, Once: once, Stream: func(emit func(u, v int32)) error {
					runs++
					running.Add(1)
					defer running.Add(-1)
					if runs < failOn {
						return streamOf(edges)(emit)
					}
					streamOf(edges[:5*chunkLen/2])(emit)
					return tc.fail(emit)
				}}
				var err error
				got := panicValueOf(func() { _, err = in.MachineViews(hosted) })
				if running.Load() != 0 {
					t.Errorf("%s: MachineViews returned while the stream still ran", name)
				}
				switch {
				case tc.err != nil:
					if got != nil || !errors.Is(err, tc.err) || !strings.Contains(err.Error(), fmt.Sprintf("shards %v", hosted)) {
						t.Errorf("%s: err %v, panic %v; want %v wrapped with the hosted set", name, err, got, tc.err)
					}
				case tc.says != "":
					if got != tc.says {
						t.Errorf("%s: panic %v, want %q", name, got, tc.says)
					}
				default:
					if got != panicValue {
						t.Errorf("%s: panic %v, want the stream's own value %v", name, got, panicValue)
					}
				}
				if runs != failOn {
					t.Errorf("%s: the stream ran %d times, want %d", name, runs, failOn)
				}
				testutil.NoLeakedGoroutines(t, base)
			}
		}
	}
}

func panicValueOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

var errBoom = errors.New("boom")

package kmachine_test

// Substrate-equivalence suite: every algorithm in the registry, run on
// both links — the in-process rendezvous over the loopback, and the
// socket link (one machine per endpoint on a loopback mesh, every
// node ruling the same rows) — must produce bit-identical Stats and
// output hashes. This is the executable form of
// the conversion results the paper builds on (Klauck et al.,
// arXiv:1311.6209): the cost of a k-machine algorithm is a property of
// its message pattern, not of the substrate that carries the messages,
// and our accounting lives in core precisely so that Stats cannot drift
// between transports.
//
// The suite is table-driven over the registry, so a future algorithm
// (MST, BFS, ...) is covered the moment its package registers a
// descriptor — no new test required.

import (
	"math"
	"testing"

	"kmachine"
	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/core"
	"kmachine/internal/transport"
)

// suiteProblem returns the per-algorithm problem sizes: small enough
// that a full run per link stays fast, large enough that
// every code path (two-hop relays, heavy vertices, rebalance traffic)
// fires.
func suiteProblem(name string) algo.Problem {
	prob := algo.Problem{N: 260, EdgeP: 0.03, K: 8, Seed: 97}
	switch name {
	case "pagerank":
		// The token walk runs Θ(log n/eps) iterations; keep n moderate.
		prob.N, prob.EdgeP = 180, 0.05
	case "triangle":
		// Denser graph so the color-partition machines enumerate real
		// triangles, k=8 to give c=2 color classes.
		prob.N, prob.EdgeP = 140, 0.1
	case "dsort":
		prob.N = 1200 // keys
	case "conncomp":
		// Sparse: many components, so the labels (and their hash) are
		// non-degenerate — on a connected graph every min-ID label
		// would be 0 and the cross-substrate comparison vacuous.
		prob.EdgeP = 2 / float64(prob.N)
	}
	return prob
}

func sameStats(t *testing.T, label string, got, want *core.Stats) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Supersteps != want.Supersteps ||
		got.Messages != want.Messages || got.Words != want.Words ||
		got.MaxRecvWords != want.MaxRecvWords {
		t.Errorf("%s stats diverge:\n got  Rounds=%d Supersteps=%d Messages=%d Words=%d MaxRecvWords=%d\n want Rounds=%d Supersteps=%d Messages=%d Words=%d MaxRecvWords=%d",
			label,
			got.Rounds, got.Supersteps, got.Messages, got.Words, got.MaxRecvWords,
			want.Rounds, want.Supersteps, want.Messages, want.Words, want.MaxRecvWords)
	}
	if len(got.RecvWords) != len(want.RecvWords) {
		t.Errorf("%s: RecvWords length %d, want %d", label, len(got.RecvWords), len(want.RecvWords))
		return
	}
	for i := range want.RecvWords {
		if got.RecvWords[i] != want.RecvWords[i] || got.SentWords[i] != want.SentWords[i] {
			t.Errorf("%s machine %d: got (recv=%d,sent=%d), want (recv=%d,sent=%d)", label, i,
				got.RecvWords[i], got.SentWords[i], want.RecvWords[i], want.SentWords[i])
		}
	}
}

// TestRegistrySubstrateEquivalence is the acceptance bar of the unified
// driver layer: for every registered algorithm, the loopback run and
// the socket run agree on every Stats field and on the canonical output
// hash, bit for bit.
func TestRegistrySubstrateEquivalence(t *testing.T) {
	names := algo.Names()
	if len(names) < 5 {
		t.Fatalf("registry holds %d algorithms %v, want at least the 5 core ones", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			entry, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("registry lost %q between Names and Lookup", name)
			}
			prob := suiteProblem(name)

			mem, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatalf("inmem run: %v", err)
			}
			if mem.Hash == 0 {
				t.Fatalf("inmem run produced zero output hash — spec %q hashes nothing", name)
			}

			tcp, err := entry.Run(prob, transport.TCP)
			if err != nil {
				t.Fatalf("tcp run: %v", err)
			}
			sameStats(t, "tcp-vs-inmem", tcp.Stats, mem.Stats)
			if tcp.Hash != mem.Hash {
				t.Errorf("output hash over tcp %016x, inmem %016x", tcp.Hash, mem.Hash)
			}

			// Stats are what the links share; Wire is what they do not:
			// the loopback ships nothing, the socket link counts every
			// frame.
			if mem.Wire.FramesSent != 0 {
				t.Errorf("inmem run reports %d frames on the wire", mem.Wire.FramesSent)
			}
			if tcp.Wire.FramesSent <= 0 {
				t.Errorf("tcp run reports %d frames on the wire, want > 0", tcp.Wire.FramesSent)
			}
		})
	}
}

// TestPublicAPITransportKnob drives the TCP substrate through the
// PUBLIC kmachine wrappers — PageRankConfig/TriangleConfig's embedded
// RunConfig and the SortOver/ConnectedComponentsOver entry points —
// which the registry suite above bypasses (it runs the internal
// entries directly). A wrapper that drops the Transport field on its
// way to core.Config would pass every other test; this one catches it.
func TestPublicAPITransportKnob(t *testing.T) {
	overTCP := kmachine.RunConfig{Transport: kmachine.TransportTCP}

	g := kmachine.Gnp(200, 0.04, 51)
	p := kmachine.RandomVertexPartition(g, 4, 52)

	memPR, err := kmachine.PageRank(p, kmachine.PageRankConfig{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	tcpPR, err := kmachine.PageRank(p, kmachine.PageRankConfig{RunConfig: overTCP, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "PageRank", tcpPR.Stats, memPR.Stats)
	for v := range memPR.Estimate {
		if math.Float64bits(tcpPR.Estimate[v]) != math.Float64bits(memPR.Estimate[v]) {
			t.Fatalf("vertex %d: tcp estimate %v, inmem %v", v, tcpPR.Estimate[v], memPR.Estimate[v])
		}
	}

	memTri, err := kmachine.Triangles(p, kmachine.TriangleConfig{Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	tcpTri, err := kmachine.Triangles(p, kmachine.TriangleConfig{RunConfig: overTCP, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "Triangles", tcpTri.Stats, memTri.Stats)
	if tcpTri.Count != memTri.Count || tcpTri.Checksum != memTri.Checksum {
		t.Errorf("triangles: tcp (count=%d, sum=%x), inmem (count=%d, sum=%x)",
			tcpTri.Count, tcpTri.Checksum, memTri.Count, memTri.Checksum)
	}

	memSort, err := kmachine.Sort(500, 4, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	tcpSort, err := kmachine.SortOver(overTCP, 500, 4, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "SortOver", tcpSort.Stats, memSort.Stats)
	for i := range memSort.Blocks {
		for j := range memSort.Blocks[i] {
			if tcpSort.Blocks[i][j] != memSort.Blocks[i][j] {
				t.Fatalf("sort machine %d key %d diverges", i, j)
			}
		}
	}

	sparse := kmachine.Gnp(300, 0.008, 56)
	ps := kmachine.RandomVertexPartition(sparse, 4, 57)
	memCC, err := kmachine.ConnectedComponents(ps, 0, 58)
	if err != nil {
		t.Fatal(err)
	}
	tcpCC, err := kmachine.ConnectedComponentsOver(overTCP, ps, 0, 58)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "ConnectedComponentsOver", tcpCC.Stats, memCC.Stats)
	if tcpCC.Components != memCC.Components {
		t.Errorf("components: tcp %d, inmem %d", tcpCC.Components, memCC.Components)
	}
	for v := range memCC.Label {
		if tcpCC.Label[v] != memCC.Label[v] {
			t.Fatalf("vertex %d label: tcp %d, inmem %d", v, tcpCC.Label[v], memCC.Label[v])
		}
	}
}

// TestRegistryDeterminism: rerunning the same problem on the same
// substrate reproduces the identical hash (a run is a pure function of
// the problem), and perturbing the seed changes it (the hash actually
// covers the output).
func TestRegistryDeterminism(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			entry, _ := algo.Lookup(name)
			prob := suiteProblem(name)
			a, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatal(err)
			}
			b, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hash != b.Hash {
				t.Errorf("same problem, different hashes: %016x vs %016x", a.Hash, b.Hash)
			}
			// Every registered algorithm must pass the perturbation
			// check: suiteProblem keeps each problem in a regime where
			// the output is seed-sensitive (e.g. conncomp runs sparse,
			// with many components), so a Hash that covers only
			// seed-invariant quantities is caught here.
			prob.Seed += 1000
			c, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatal(err)
			}
			if c.Hash == a.Hash {
				t.Errorf("perturbed seed reproduced hash %016x — hash does not cover the output", a.Hash)
			}
		})
	}
}

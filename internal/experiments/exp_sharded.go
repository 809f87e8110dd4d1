package experiments

import (
	"fmt"
	"runtime"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

// E23ShardedSetup measures what partition-local input buys: the memory
// a process retains to SET UP a k-machine computation, before the first
// superstep runs.
//
// §1.1 assumes the input is already distributed — each machine holds the
// adjacency rows of its Home-owned vertices, Õ((n+m)/k) of the graph —
// and the model's whole point is that no machine ever holds more. The
// registry honours that on every run (algo.GraphInput: the hosted
// machines' CSR shards, built from one replay of the generator's
// canonical stream). The reference it is measured against is the
// library path for caller-supplied graphs, gen.Gnp + partition.NewRVP,
// which holds the whole graph in the process and windows it.
//
// The experiment builds machine 0's input both ways at growing n and
// records the retained heap (HeapAlloc delta across forced GCs while the
// input is live). The shard's retained heap should be ~k× smaller; the
// acceptance bar is ≥4× at k=8. A third arm builds all k shards in one
// process — what kmnode -local and the in-process substrates hold:
// about the full graph's heap, since the k shards together are the
// graph. Machine time is not recorded here: setup_s and the gen.* rows
// of benchmark/ own it.
//
// The last row is the payoff: take the full graph's retained heap at
// the largest measured n as a per-process memory budget, then set up
// AND run PageRank at 8×n — a graph no process here ever materialises —
// and show machine 0's setup stays inside that budget.
func E23ShardedSetup(cfg Config) (Table, error) {
	t := Table{
		ID:     "E23",
		Title:  "partition-local setup: per-process retained heap, materialised graph vs hosted shards",
		Claim:  "§1.1 input assumption: each machine starts with Õ((n+m)/k) of the graph — setup memory must scale with the shard, not the graph",
		Header: []string{"n", "avg deg", "input", "retained heap", "heap vs full"},
	}
	const k = 8
	sizes := []int{12_500, 25_000, 50_000}
	bigFactor := 8
	if cfg.Quick {
		sizes = []int{2_000, 4_000}
	}
	problem := func(n int) algo.Problem {
		return algo.Problem{N: n, K: k, Seed: cfg.Seed + 551, EdgeP: 10 / float64(n)}
	}
	// Both arms are library calls; shards is what algo.GraphInput
	// resolves a generated Problem to.
	full := func(prob algo.Problem) partition.Input {
		return partition.NewRVP(gen.Gnp(prob.N, prob.EdgeP, prob.Seed), prob.K, prob.PartitionSpec().Seed)
	}
	shards := func(prob algo.Problem) partition.Input {
		return gen.GnpInput(prob.PartitionSpec(), prob.EdgeP, prob.Seed)
	}

	machine0, allK := []core.MachineID{0}, partition.AllMachines(k)
	var lastFullHeap, lastShardHeap uint64
	minRatio := 0.0
	for _, n := range sizes {
		prob := problem(n)
		fullHeap, err := retainedHeap(prob, machine0, full)
		if err != nil {
			return t, fmt.Errorf("full graph n=%d: %w", n, err)
		}
		shHeap, err := retainedHeap(prob, machine0, shards)
		if err != nil {
			return t, fmt.Errorf("machine 0's shard n=%d: %w", n, err)
		}
		allHeap, err := retainedHeap(prob, allK, shards)
		if err != nil {
			return t, fmt.Errorf("all k shards n=%d: %w", n, err)
		}
		r := float64(fullHeap) / float64(shHeap)
		if minRatio == 0 || r < minRatio {
			minRatio = r
		}
		lastFullHeap, lastShardHeap = fullHeap, shHeap
		t.Rows = append(t.Rows,
			[]string{itoa(n), "10", "full graph (gen.Gnp + NewRVP)", mib(fullHeap), "1.00x"},
			[]string{itoa(n), "10", "machine 0's shard", mib(shHeap), fmt.Sprintf("%.2fx", 1/r)},
			[]string{itoa(n), "10", "all k shards in one process", mib(allHeap),
				fmt.Sprintf("%.2fx", float64(allHeap)/float64(fullHeap))},
		)
	}
	nMax := sizes[len(sizes)-1]
	t.Notes = append(t.Notes,
		"retained heap is the HeapAlloc delta across forced GCs with the input live: the whole graph plus partition for the full arm (library calls — no registry run builds it), one machine's CSR shard for machine 0, all k shards (together, the graph) for the all-k arm")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"per-process setup heap reduction at k=%d: worst measured %.1fx, at n=%d %.1fx (acceptance bar >=4x): %v",
		k, minRatio, nMax, float64(lastFullHeap)/float64(lastShardHeap), minRatio >= 4))

	// Budget demonstration: PageRank at bigFactor×nMax. The full graph's
	// heap at nMax is the budget; machine 0's setup at the larger n must
	// fit inside it.
	nBig := bigFactor * nMax
	bigProb := problem(nBig)
	bigHeap, err := retainedHeap(bigProb, machine0, shards)
	if err != nil {
		return t, fmt.Errorf("machine 0's shard n=%d: %w", nBig, err)
	}
	t.Rows = append(t.Rows, []string{
		itoa(nBig), "10", "machine 0's shard", mib(bigHeap),
		fmt.Sprintf("%.2fx of budget", float64(bigHeap)/float64(lastFullHeap)),
	})
	entry, ok := algo.Lookup("pagerank")
	if !ok {
		return t, fmt.Errorf("pagerank not registered")
	}
	out, err := entry.Run(bigProb, transport.InMem)
	if err != nil {
		return t, fmt.Errorf("pagerank n=%d: %w", nBig, err)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"budget: the full graph at n=%d retains %s per process; machine 0's shard at n=%d (%dx larger) retains %s (%.2fx of budget, fits: %v)",
		nMax, mib(lastFullHeap), nBig, bigFactor, mib(bigHeap), float64(bigHeap)/float64(lastFullHeap), bigHeap <= lastFullHeap))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"pagerank at n=%d ran end to end through the registry: %d rounds, output hash %016x",
		nBig, out.Stats.Rounds, out.Hash))
	t.Notes = append(t.Notes,
		"machine time is not in this table (setup_s and the gen.* rows of benchmark/ own it); by design it stays O(n+m) per process: every process replays the per-row canonical stream once, however many machines it hosts, and keeps only their rows — the hashed partition trades generation CPU for the Õ((n+m)/k) memory footprint the model requires")
	return t, nil
}

// retainedHeap builds the hosted machines' views of prob's input and
// returns the heap retained while they are live. The suite may have run
// other experiments in this process first, so the baseline is taken
// after TWO GCs (sync.Pool victim caches clear one cycle late; a
// late-freed pool from an earlier TCP run would otherwise offset the
// delta, even to zero), and a degenerate zero reading is retried.
func retainedHeap(prob algo.Problem, hosted []core.MachineID, build func(algo.Problem) partition.Input) (uint64, error) {
	var heap uint64
	for attempt := 0; attempt < 3 && heap == 0; attempt++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		in := build(prob)
		views, err := in.MachineViews(hosted)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			heap = after.HeapAlloc - before.HeapAlloc
		}
		runtime.KeepAlive(views)
		runtime.KeepAlive(in)
	}
	if heap == 0 {
		return 0, fmt.Errorf("retained-heap measurement degenerate at n=%d (GC noise exceeded the input's footprint)", prob.N)
	}
	return heap, nil
}

// mib renders a byte count as mebibytes.
func mib(b uint64) string {
	return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
}

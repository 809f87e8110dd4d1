package main

import (
	"fmt"

	"kmachine/internal/algo"
	"kmachine/internal/rng"
)

// substrate names the runner a workload goes through.
type substrate int

const (
	onTCP   substrate = iota // Entry.Run(prob, transport.TCP)
	onInMem                  // Entry.Run(prob, transport.InMem)
	onNode                   // Entry.RunNodeLocal(prob)
	onJobs                   // HTTP job service over a standing mesh
)

// expect is what one run must return for the output to count as
// correct: the canonical output hash and the model ledger.
type expect struct {
	Hash       uint64
	Rounds     int64
	Words      int64
	Supersteps int
}

func (e expect) String() string {
	return fmt.Sprintf("{Hash: %#016x, Rounds: %d, Words: %d, Supersteps: %d}", e.Hash, e.Rounds, e.Words, e.Supersteps)
}

// workload is one row of the fixed matrix. Names are normative: later
// issues cite them, and BENCHMARK.json repeats them with their reason.
type workload struct {
	Name string
	Why  string
	On   substrate
	// Algo, N, EdgeP/Deg, K, Sharded and Ckpt define the seed-derived
	// algo.Problem; QuickN replaces N under -quick. EdgeP is an absolute
	// probability, Deg an average degree (EdgeP = Deg/N); both zero
	// leaves the registry default of 10/N.
	Algo    string
	N       int
	QuickN  int
	EdgeP   float64
	Deg     float64
	K       int
	Sharded bool
	Ckpt    bool
	// Golden pins the outcome at the default seed and full size. For
	// jobs-mix Hash is a digest of the ten slot hashes and Rounds/Words
	// are the sums over one block.
	Golden expect
}

const defaultSeed = 1

var workloads = []workload{
	{
		Name: "pagerank-tcp", On: onTCP, Algo: "pagerank", N: 20000, QuickN: 200, K: 8,
		Why:    "Algorithm 1: 585 supersteps of ~500-byte frames, so per-superstep fixed cost (core barrier, tcp wake-ups, per-frame wire cost, syscalls) dominates",
		Golden: expect{Hash: 0x200ed5898ac9f13c, Rounds: 7375, Words: 5345836, Supersteps: 585},
	},
	{
		Name: "dsort-tcp-bulk", On: onTCP, Algo: "dsort", N: 2000000, QuickN: 20000, K: 8,
		Why:    "same wire+tcp layers used the opposite way: 6 supersteps and ~44 MB in a few huge frames, so encode/decode/copy throughput dominates and per-frame cost vanishes",
		Golden: expect{Hash: 0xdedc873363dbb57f, Rounds: 3284, Words: 3268541, Supersteps: 6},
	},
	{
		Name: "triangle-inmem-dense", On: onInMem, Algo: "triangle", N: 2000, QuickN: 200, EdgeP: 0.12, K: 27,
		Why:    "3 supersteps, ~5.2 M words, local enumeration dominates; bypasses wire/tcp/node entirely and runs the core barrier with 27 workers on 2 cores",
		Golden: expect{Hash: 0x3c962749a0b4c1fc, Rounds: 1175, Words: 5245412, Supersteps: 3},
	},
	{
		Name: "conncomp-node-sharded", On: onNode, Algo: "conncomp", N: 100000, QuickN: 2000, Deg: 12, K: 8, Sharded: true,
		Golden: expect{Hash: 0xddaeea7ba041c7a0, Rounds: 8197, Words: 7625456, Supersteps: 12},
		Why:    "setup-bound: every machine replays the generator stream into its CSR shard, then the run goes through the second superstep loop (node report/verdict coordinator)",
	},
	{
		Name: "pagerank-node-ckpt", On: onNode, Algo: "pagerank", N: 20000, QuickN: 200, K: 8, Ckpt: true,
		Why:    "checkpoint every superstep on the node runtime (KMNP parts + gob stats + .kmnc mirror), same graph as pagerank-tcp, so the pair isolates checkpoint + node-loop cost",
		Golden: expect{Hash: 0x200ed5898ac9f13c, Rounds: 7375, Words: 5345836, Supersteps: 585},
	},
	{
		Name: "jobs-mix", On: onJobs, K: 8,
		Golden: expect{Hash: 0x4548aef8f60fb153, Rounds: 3136, Words: 1640917, Supersteps: 511},
		Why:    "resident-daemon path: 2 closed-loop HTTP clients submit a seeded mix of short jobs to one executor on a standing mesh, so queueing, attach/detach rounds and polling are a visible share",
	},
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// problem derives the workload's algo.Problem from the seed. The
// program under test only ever sees this value.
func (w *workload) problem(seed uint64, quick bool) algo.Problem {
	n := w.N
	if quick {
		n = w.QuickN
	}
	p := algo.Problem{N: n, K: w.K, Seed: seed, EdgeP: w.EdgeP, Sharded: w.Sharded}
	if w.Deg > 0 {
		p.EdgeP = w.Deg / float64(n)
	}
	return p
}

// jobSpec is one job of the mix; the backend's k applies.
type jobSpec struct {
	Algo string
	N    int
	Seed uint64
}

// mixShape is one block of the jobs-mix stream: ten slots, 40 %
// routing, 30 % dsort, 20 % triangle, 10 % pagerank. Every block holds
// exactly these proportions, so a run's mix does not depend on where
// the clock stopped it.
var mixShape = [10]jobSpec{
	{Algo: "routing", N: 20000}, {Algo: "routing", N: 20000}, {Algo: "routing", N: 20000}, {Algo: "routing", N: 20000},
	{Algo: "dsort", N: 50000}, {Algo: "dsort", N: 50000}, {Algo: "dsort", N: 50000},
	{Algo: "triangle", N: 3000}, {Algo: "triangle", N: 3000},
	{Algo: "pagerank", N: 2000},
}

// jobMix is the seeded job stream: each slot of the shape gets its own
// problem seed, and every block replays the ten slots in a freshly
// shuffled order. Ten distinct problems keep the correctness gate
// cheap (one reference run per slot) while the arrival order still
// varies with the seed.
type jobMix struct {
	seed  uint64
	slots [10]jobSpec
}

func newJobMix(seed uint64, quick bool) *jobMix {
	m := &jobMix{seed: seed, slots: mixShape}
	for i := range m.slots {
		m.slots[i].Seed = rng.Mix(seed<<8 | uint64(i))
		if quick {
			m.slots[i].N /= 20
		}
	}
	return m
}

// slot returns which of the ten slots job i of the stream is.
func (m *jobMix) slot(i int) int {
	order := [10]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	rng.Shuffle(rng.NewStream(m.seed, uint64(i/10)), order[:])
	return order[i%10]
}

package kmachine_test

// One checkpoint format, whichever runtime wrote it: the container the
// in-process rendezvous stores after superstep s over the loopback and
// the one the node runtime's assembler stores over sockets are the same
// bytes, a directory written by one is resumed by the other, and the one
// decoder behind both survives arbitrary input.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/pagerank"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
)

// recordingSink keeps every checkpoint it is handed, keyed by superstep.
type recordingSink struct {
	core.CheckpointSink
	mu   sync.Mutex
	cuts map[int][]byte
}

func newRecordingSink(inner core.CheckpointSink) *recordingSink {
	return &recordingSink{CheckpointSink: inner, cuts: map[int][]byte{}}
}

func (s *recordingSink) Put(step int, blob []byte) error {
	s.mu.Lock()
	s.cuts[step] = append([]byte(nil), blob...)
	s.mu.Unlock()
	return s.CheckpointSink.Put(step, blob)
}

func TestCheckpointBytesIdenticalAcrossRuntimes(t *testing.T) {
	for _, name := range algo.Names() {
		t.Run(name, func(t *testing.T) {
			entry, _ := algo.Lookup(name)
			prob := suiteProblem(name)
			ref, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatal(err)
			}

			cuts := map[transport.Kind]map[int][]byte{}
			for _, runtime := range []transport.Kind{transport.InMem, transport.TCP} {
				sink := newRecordingSink(core.NewMemorySink())
				prob.Checkpoint = algo.CheckpointSpec{Every: 1, Sink: sink}
				out, err := entry.Run(prob, runtime)
				if err != nil {
					t.Fatalf("checkpointed %s run: %v", runtime, err)
				}
				// Arming checkpoints perturbs nothing the run reports.
				sameStats(t, "checkpointed-"+string(runtime), out.Stats, ref.Stats)
				if out.Hash != ref.Hash {
					t.Errorf("checkpointed %s run: hash %016x, reference %016x", runtime, out.Hash, ref.Hash)
				}
				cuts[runtime] = sink.cuts
			}
			// Every superstep but the quiescent last one is captured.
			if got, want := len(cuts[transport.InMem]), ref.Stats.Supersteps; got != want {
				t.Errorf("inmem run stored %d checkpoints over %d accounted supersteps", got, want)
			}
			if len(cuts[transport.TCP]) != len(cuts[transport.InMem]) {
				t.Errorf("tcp run stored %d checkpoints, inmem %d", len(cuts[transport.TCP]), len(cuts[transport.InMem]))
			}
			for step, want := range cuts[transport.InMem] {
				if !bytes.Equal(cuts[transport.TCP][step], want) {
					t.Errorf("superstep %d: tcp container (%d bytes) differs from inmem's (%d bytes)",
						step, len(cuts[transport.TCP][step]), len(want))
				}
			}

			// A directory one runtime wrote is a restart point for the
			// others: the resumed run starts after the newest file, so it
			// stores no cut at or below it, and lands on the reference hash
			// and Stats.
			every := max(1, ref.Stats.Supersteps/2)
			written := map[transport.Kind]string{}
			for _, writer := range []transport.Kind{transport.InMem, transport.TCP} {
				written[writer] = t.TempDir()
				prob.Checkpoint = algo.CheckpointSpec{Every: every, Dir: written[writer]}
				if _, err := entry.Run(prob, writer); err != nil {
					t.Fatal(err)
				}
			}
			for _, pair := range [][2]transport.Kind{{transport.InMem, transport.TCP}, {transport.TCP, transport.InMem}, {transport.TCP, transport.TCP}} {
				label := string(pair[1]) + "-resumed-from-" + string(pair[0]) + "-dir"
				dir := t.TempDir()
				if err := os.CopyFS(dir, os.DirFS(written[pair[0]])); err != nil {
					t.Fatal(err)
				}
				from, _, err := core.NewFileSink(dir).Latest()
				if err != nil || from < 0 {
					t.Fatalf("%s run left no checkpoint in its directory (latest %d, err %v)", pair[0], from, err)
				}
				sink := newRecordingSink(core.NewFileSink(dir))
				prob.Checkpoint = algo.CheckpointSpec{Every: every, Sink: sink}
				resumed, err := entry.Run(prob, pair[1])
				if err != nil {
					t.Fatalf("%s from superstep %d: %v", label, from, err)
				}
				sameStats(t, label, resumed.Stats, ref.Stats)
				if resumed.Hash != ref.Hash {
					t.Errorf("%s from superstep %d: hash %016x, reference %016x", label, from, resumed.Hash, ref.Hash)
				}
				for step := range sink.cuts {
					if step <= from {
						t.Errorf("%s from superstep %d stored a cut at superstep %d", label, from, step)
					}
				}
			}
		})
	}
}

// countingSink counts the Latest calls on the sink it wraps.
type countingSink struct {
	core.CheckpointSink
	latest atomic.Int64
}

func (s *countingSink) Latest() (int, []byte, error) {
	s.latest.Add(1)
	return s.CheckpointSink.Latest()
}

// TestCheckpointedRunOpensItsCutOnce: a cut belongs to the whole run,
// not to one machine, so a checkpointed run opens its sink's latest cut
// once per attempt on both links, whether it starts from superstep 0 or
// resumes — not once per machine.
func TestCheckpointedRunOpensItsCutOnce(t *testing.T) {
	entry, _ := algo.Lookup("pagerank")
	prob := algo.Problem{N: 500, K: 8, Seed: 1}
	for _, runtime := range []transport.Kind{transport.InMem, transport.TCP} {
		sink := &countingSink{CheckpointSink: core.NewMemorySink()}
		prob.Checkpoint = algo.CheckpointSpec{Every: 4, Sink: sink}
		for _, attempt := range []string{"fresh", "resumed"} {
			sink.latest.Store(0)
			if _, err := entry.Run(prob, runtime); err != nil {
				t.Fatalf("%s %s run: %v", attempt, runtime, err)
			}
			if got := sink.latest.Load(); got != 1 {
				t.Errorf("%s %s run read the sink's Latest %d times, want once", attempt, runtime, got)
			}
		}
	}
}

// TestConnCompCheckpointLayoutPinned pins the bytes of every conncomp
// cut against a recorded digest. The cross-runtime test above only
// compares runtimes with each other, so a layout change made on all of
// them at once — a reordered label, a dropped flag — passes it; this one
// does not, and a deliberate format change must re-record the digest.
func TestConnCompCheckpointLayoutPinned(t *testing.T) {
	checkCutsPinned(t, "conncomp", 12, 0x715ac85a3331a0de)
}

// TestPageRankCheckpointLayoutPinned is the same pin for PageRank: the
// iteration counter and each local vertex's token and visit counts in
// Locals() order, so a change to how the machine stores that state
// cannot change what it writes. Every container also carries the run
// digest, which covers the registry's protocol number.
func TestPageRankCheckpointLayoutPinned(t *testing.T) {
	checkCutsPinned(t, "pagerank", 62, 0x648341672d8ff28d)
}

// checkCutsPinned runs the registry entry's suite problem on inmem with
// a checkpoint every superstep and compares the number of cuts and the
// digest of their bytes, in superstep order, with the recorded ones.
func checkCutsPinned(t *testing.T, name string, wantCuts int, want uint64) {
	t.Helper()
	entry, _ := algo.Lookup(name)
	prob := suiteProblem(name)
	sink := newRecordingSink(core.NewMemorySink())
	prob.Checkpoint = algo.CheckpointSpec{Every: 1, Sink: sink}
	if _, err := entry.Run(prob, transport.InMem); err != nil {
		t.Fatal(err)
	}
	steps := slices.Sorted(maps.Keys(sink.cuts))
	h := fnv.New64a()
	for _, step := range steps {
		fmt.Fprintf(h, "%d:%d:", step, len(sink.cuts[step]))
		h.Write(sink.cuts[step])
	}
	if got := h.Sum64(); len(steps) != wantCuts || got != want {
		t.Errorf("%d %s cuts hash to %016x, recorded %d cuts hashing to %016x", len(steps), name, got, wantCuts, want)
	}
}

// FuzzCheckpointDecode drives the whole decode path of a checkpoint —
// container, Stats, every part into real PageRank machines — seeded
// with the containers of a real registry run. Whatever the bytes, it
// returns a value or an error; it never panics and never sizes an
// allocation by a count it has not checked against the bytes present.
func FuzzCheckpointDecode(f *testing.F) {
	sink := newRecordingSink(core.NewMemorySink())
	prob := suiteProblem("pagerank")
	prob.Checkpoint = algo.CheckpointSpec{Every: 1, Sink: sink}
	entry, _ := algo.Lookup("pagerank")
	if _, err := entry.Run(prob, transport.InMem); err != nil {
		f.Fatal(err)
	}
	for _, step := range []int{0, 1, len(sink.cuts) - 1} {
		f.Add(sink.cuts[step])
	}
	f.Add([]byte("KMCK\x02\x00\x00\x02\x00\x00\x00"))

	a := pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15))
	in := failurePartition(f)
	snaps := make([]core.Snapshotter, failK)
	for i := range snaps {
		m, err := a.NewMachine(in.View(core.MachineID(i)))
		if err != nil {
			f.Fatal(err)
		}
		snaps[i] = m.(core.Snapshotter)
	}
	r := rng.NewStream(1, 0)
	f.Fuzz(func(t *testing.T, blob []byte) {
		run, step, parts, stats, err := core.DecodeCheckpoint(blob)
		if err != nil {
			return
		}
		if again, step2, _, _, err := core.DecodeCheckpoint(core.AppendCheckpoint(nil, run, step, parts, stats)); err != nil || again != run || step2 != step {
			t.Fatalf("re-encoded container decodes to run %x superstep %d (err %v), want %x %d", again, step2, err, run, step)
		}
		core.DecodeStats(stats, len(parts))
		for i, part := range parts {
			id := core.MachineID(i % failK)
			core.RestoreCheckpointPart(part, step, id, r, snaps[id], a.Codec)
		}
	})
}

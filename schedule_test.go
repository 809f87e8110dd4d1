package kmachine_test

// The superstep schedule is one thing — Begin, eager batches mid-Step,
// Finish — and checkpointing composes with it instead of switching it
// off: a checkpointed run still puts bytes on the wire while machines
// compute, lands on the same hash and Stats, and a machine killed in a
// superstep whose batches had already left their machines is replayed —
// batches re-emitted — to the golden output.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/obs"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

// TestCheckpointedRunKeepsItsSchedule runs the two eagerly-emitting
// registry algorithms with a checkpoint after every superstep on all
// three substrates against an un-checkpointed loopback reference, and
// reads the overlap gauge (frame writes ∩ compute) off the traced TCP
// run: above zero means frames were written while a Step was running.
func TestCheckpointedRunKeepsItsSchedule(t *testing.T) {
	for _, name := range []string{"pagerank", "dsort"} {
		t.Run(name, func(t *testing.T) {
			entry, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("algorithm %q not registered", name)
			}
			prob := suiteProblem(name)
			ref, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatal(err)
			}
			prob.Checkpoint = algo.CheckpointSpec{Every: 1}
			same := func(label string, got *algo.Outcome) {
				t.Helper()
				sameStats(t, label, got.Stats, ref.Stats)
				if got.Hash != ref.Hash {
					t.Errorf("%s: hash %016x, reference %016x", label, got.Hash, ref.Hash)
				}
			}

			mem, err := entry.Run(prob, transport.InMem)
			if err != nil {
				t.Fatalf("checkpointed inmem run: %v", err)
			}
			same("checkpointed-inmem", mem)

			node, err := entry.RunNodeLocal(prob)
			if err != nil {
				t.Fatalf("checkpointed node run: %v", err)
			}
			same("checkpointed-node", node)

			// The gauge reads the whole run, so the ring must hold it: a
			// wrapped ring keeps only the late supersteps, which write no frame
			// during compute.
			trace := obs.NewTrace(0, prob.K)
			prob.Recorder = trace
			sock, err := entry.Run(prob, transport.TCP)
			if err != nil {
				t.Fatalf("checkpointed tcp run: %v", err)
			}
			same("checkpointed-tcp", sock)
			if d := trace.Counters().Dropped; d > 0 {
				t.Fatalf("the trace dropped %d spans", d)
			}
			if name == "pagerank" {
				if gauge := obs.Overlap(trace.Spans()); gauge <= 0 {
					t.Errorf("overlap gauge %.3f on a checkpointed tcp run — no frame was written during compute", gauge)
				}
			}
		})
	}
}

// emitSpy counts, per superstep, the batches machines hand to the
// transport mid-Step.
type emitSpy[M any] struct {
	transport.Transport[M]
	step int // superstep of the last Begin; workers read it after the step barrier released them

	mu      sync.Mutex
	emitted map[int]int
}

func (s *emitSpy[M]) Begin(ctx context.Context, step int) error {
	s.step = step
	return s.Transport.Begin(ctx, step)
}

func (s *emitSpy[M]) SendBatch(from, to transport.MachineID, batch []transport.Envelope[M]) error {
	s.mu.Lock()
	s.emitted[s.step]++
	s.mu.Unlock()
	return s.Transport.SendBatch(from, to, batch)
}

// spyOn returns a wrap that puts spy around a transport.
func (s *emitSpy[M]) spyOn(tr core.Transport[M]) core.Transport[M] {
	s.Transport = tr
	return s
}

// checkKilledEmittingSuperstep kills recVictim in superstep killStep of
// a run checkpointing every superstep. killStep's Finish never
// succeeded, so it was never captured: the resumed run restores the cut
// after killStep-1 and runs killStep again on a fresh transport,
// emitting its eager batches a second time. The resumed output and
// Stats must equal the unkilled golden arm's.
func checkKilledEmittingSuperstep[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, killStep int) {
	t.Helper()
	goldenOut, goldenStats := goldenRun(t, a, in, k, kind, 1)
	spy := &emitSpy[M]{emitted: map[int]int{}}
	replay := &emitSpy[M]{emitted: map[int]int{}}
	kill := killAt[M](killStep)
	got, stats := killThenResume(t, a, in, k, kind, 1,
		func(tr core.Transport[M]) core.Transport[M] { return spy.spyOn(kill(tr)) }, replay.spyOn)
	if first, again := spy.emitted[killStep], replay.emitted[killStep]; first == 0 || again != first {
		t.Fatalf("superstep %d emitted %d batches before the kill and %d on replay, want the same nonzero count", killStep, first, again)
	}
	if !reflect.DeepEqual(got, goldenOut) {
		t.Errorf("output recovered from a kill in an emitting superstep diverges from the golden run")
	}
	sameStats(t, "recovered-vs-golden", stats, goldenStats)
}

func TestKilledEmittingSuperstepReEmitsOnReplay(t *testing.T) {
	sortAlgo, err := dsort.Descriptor(dsort.RandomInput(failN, failK, 11, dsort.UniformKeys), 0)
	if err != nil {
		t.Fatal(err)
	}
	edgeless := algo.EdgelessInput(algo.Problem{N: failN, K: failK, Seed: 11})
	for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
		t.Run("dsort/"+string(kind), func(t *testing.T) {
			// Superstep 1 routes every key to its bucket machine.
			checkKilledEmittingSuperstep(t, sortAlgo, edgeless, failK, kind, 1)
		})
		t.Run("pagerank/"+string(kind), func(t *testing.T) {
			// Even supersteps start a walk iteration and ship its tokens.
			checkKilledEmittingSuperstep(t, pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15)), failurePartition(t), failK, kind, 2)
		})
	}
}

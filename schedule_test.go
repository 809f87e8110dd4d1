package kmachine_test

// The superstep schedule is one thing — Begin, Step, the round that
// carries every batch — and checkpointing composes with it: a
// checkpointed run lands on the same hash and Stats as an unarmed one,
// and a machine killed in a superstep whose batches were already on
// their way is replayed — batches emitted again — to the golden output.

import (
	"reflect"
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

// TestCheckpointedRunMatchesReference runs the emitting registry
// algorithms with a checkpoint after every superstep on both links
// against an un-checkpointed loopback reference: same hash, same Stats.
func TestCheckpointedRunMatchesReference(t *testing.T) {
	for _, name := range []string{"pagerank", "dsort", "conncomp"} {
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

			sock, err := entry.Run(prob, transport.TCP)
			if err != nil {
				t.Fatalf("checkpointed tcp run: %v", err)
			}
			same("checkpointed-tcp", sock)
		})
	}
}

// checkKilledEmittingSuperstep kills recVictim in superstep killStep of
// a run checkpointing every superstep, once killStep has put something
// on its way. killStep never completed, so it was never captured: the
// resumed run restores the cut after killStep-1 and runs killStep again
// on fresh machines, sending all the golden run sent in it a second
// time. The resumed output and Stats must equal the unkilled golden
// arm's. Over sockets the frame writes prove what left: some, written by
// the peers' rounds, before the kill, the golden run's count on replay.
// In process the victim severs once its own Step has returned, and the
// golden run's Stats prove the superstep sends.
func checkKilledEmittingSuperstep[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, killStep int) {
	t.Helper()
	var golden, killed, replay *sent
	if kind == transport.TCP {
		golden, killed, replay = newSent(-1), newSent(killStep), newSent(-1)
	}
	goldenOut, goldenStats, err := runArm(t, a, in, k, kind, core.CheckpointPolicy{Every: 1}, fault{at: -1, seen: golden})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if msgs := goldenStats.PerSuperstep[killStep].Messages; msgs == 0 {
		t.Fatalf("superstep %d of the golden run sends nothing", killStep)
	}
	kill := killAt(recVictim, killStep)
	kill.seen = killed
	got, stats := killThenResume(t, a, in, k, kind, 1, kill, fault{at: -1, seen: replay})
	if kind == transport.TCP {
		if first, again, want := killed.count(killStep), replay.count(killStep), golden.count(killStep); first == 0 || again != want {
			t.Fatalf("superstep %d sent %d frames before the kill and %d on replay, want some and then the golden run's %d", killStep, first, again, want)
		}
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
		t.Run("conncomp/"+string(kind), func(t *testing.T) {
			// Superstep 3 opens phase 2 and ships its labels.
			checkKilledEmittingSuperstep(t, conncomp.Descriptor(failN), failurePartition(t), failK, kind, 3)
		})
	}
}

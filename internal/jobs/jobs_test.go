package jobs

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// inmemBackend is the socket-free Backend of the tests that exercise the
// scheduler rather than the mesh: every job runs on a fresh in-process
// cluster over the loopback transport.
type inmemBackend struct{ k int }

func (b inmemBackend) Run(ctx context.Context, req Request, job uint64) (*algo.Outcome, error) {
	e, _ := algo.Lookup(req.Algo) // Submit validated the name
	prob := req.Prob
	prob.K = b.k
	prob.Context = ctx
	return e.Run(prob, transport.InMem)
}

func (b inmemBackend) Healthy() bool   { return true }
func (b inmemBackend) Rebuilds() int64 { return 0 }
func (b inmemBackend) K() int          { return b.k }
func (b inmemBackend) Close() error    { return nil }

// chaosHook, when non-nil, is invoked by the testjob-chaos algorithm's
// machine 1 at superstep 2 — the deterministic "kill a machine mid-job"
// waypoint of the chaos test.
var chaosHook atomic.Pointer[func()]

type spinMsg struct{ X int64 }

type spinCodec struct{}

func (spinCodec) Append(dst []byte, m spinMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.X), nil
}

func (spinCodec) Decode(src []byte) (spinMsg, int, error) {
	c := wire.Cursor{Src: src}
	m := spinMsg{X: c.Varint()}
	return m, c.Off, c.Err
}

type spinMachine struct {
	self core.MachineID
	got  int64
}

func (m *spinMachine) Step(ctx *core.StepContext, inbox []core.Envelope[spinMsg]) ([]core.Envelope[spinMsg], bool) {
	for _, e := range inbox {
		m.got += e.Msg.X
	}
	if m.self == 1 && ctx.Superstep == 2 {
		if hook := chaosHook.Load(); hook != nil {
			(*hook)()
		}
	}
	if ctx.Superstep >= 4 {
		return nil, true
	}
	// A draw from the machine's stream makes the output a function of
	// the seed, so a checkpoint of another seed's run cannot pass for
	// this run's.
	return []core.Envelope[spinMsg]{{
		To:    core.MachineID((int(m.self) + 1) % ctx.K),
		Words: 1,
		Msg:   spinMsg{X: int64(ctx.RNG.Uint64() % 1000)},
	}}, false
}

func (m *spinMachine) Output() int64 { return m.got }

// The chaos machine is checkpointable, so the same waypoint that drives
// the fail-fast kill test can drive the resume-from-checkpoint test.
func (m *spinMachine) SnapshotState(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, m.got), nil
}

func (m *spinMachine) RestoreState(src []byte) error {
	c := &wire.Cursor{Src: src}
	m.got = c.Varint()
	return c.Finish()
}

// testOnlyAlgos names the registrations this test file adds; the
// registry-wide determinism sweep skips them.
var testOnlyAlgos = map[string]bool{"testjob-chaos": true}

func init() {
	algo.Register(algo.Spec[spinMsg, int64, int64]{
		Name: "testjob-chaos",
		Doc:  "test-only multi-superstep ring with a chaos waypoint",
		Build: func(prob algo.Problem) (algo.Algorithm[spinMsg, int64, int64], partition.Input, error) {
			g := graph.NewBuilder(prob.N, false).Build()
			a := algo.Algorithm[spinMsg, int64, int64]{
				Name:  "testjob-chaos",
				Codec: spinCodec{},
				NewMachine: func(view partition.View) (algo.Machine[spinMsg, int64], error) {
					return &spinMachine{self: view.Self()}, nil
				},
				Merge: func(locals []int64) int64 {
					var sum int64
					for _, l := range locals {
						sum += l
					}
					return sum
				},
			}
			return a, partition.NewRVP(g, prob.K, prob.Seed+1), nil
		},
		Hash: func(sum int64) uint64 {
			h := algo.NewHash64()
			h.Add(uint64(sum))
			return h.Sum()
		},
	})
}

// waitState polls until job id reaches a terminal state.
func waitState(t *testing.T, s *Scheduler, id uint64) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if j.State == StateDone || j.State == StateFailed || j.State == StateCanceled {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d did not finish", id)
	return Job{}
}

// TestSchedulerMeshJobStream: a mixed-algorithm job stream on one
// standing mesh — FIFO order, every result bit-identical to a fresh
// single-run reference, goroutine-clean Close.
func TestSchedulerMeshJobStream(t *testing.T) {
	const k = 3
	base := runtime.NumGoroutine()
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})

	mix := []string{"pagerank", "conncomp", "pagerank", "triangle"}
	ids := make([]uint64, len(mix))
	for i, name := range mix {
		id, err := s.Submit(Request{Algo: name, Prob: algo.Problem{N: 120, Seed: 7}})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		j := waitState(t, s, id)
		if j.State != StateDone {
			t.Fatalf("job %d (%s) failed: %s", id, mix[i], j.Err)
		}
		entry, _ := algo.Lookup(mix[i])
		ref, err := entry.Run(algo.Problem{N: 120, K: k, Seed: 7}, transport.TCP)
		if err != nil {
			t.Fatal(err)
		}
		if j.Outcome.Hash != ref.Hash {
			t.Errorf("job %d (%s) hash %016x, fresh-mesh reference %016x", id, mix[i], j.Outcome.Hash, ref.Hash)
		}
		if j.Outcome.Stats.Rounds != ref.Stats.Rounds || j.Outcome.Stats.Words != ref.Stats.Words {
			t.Errorf("job %d (%s) stats diverge from reference", id, mix[i])
		}
	}
	// FIFO: every job started no earlier than its predecessor.
	for i := 1; i < len(ids); i++ {
		a, _ := s.Get(ids[i-1])
		bj, _ := s.Get(ids[i])
		if bj.Started.Before(a.Started) {
			t.Errorf("job %d started before its predecessor", ids[i])
		}
	}
	st := s.Stats()
	if st.Done != int64(len(mix)) || st.Failed != 0 || st.Rebuilds != 0 {
		t.Errorf("stats %+v, want %d done, 0 failed, 0 rebuilds", st, len(mix))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestJobStreamDeterminism: for every registered algorithm, the same
// (algo, seed) job run after N prior mixed-algorithm jobs on a standing
// mesh yields output hash and Stats bit-identical to a fresh mesh — and
// the inmem build-per-job backend agrees. This is the resident daemon's
// core correctness claim.
func TestJobStreamDeterminism(t *testing.T) {
	const k = 3
	prob := algo.Problem{N: 150, Seed: 11}
	refProb := prob
	refProb.K = k

	names := []string{}
	for _, n := range algo.Names() {
		if !testOnlyAlgos[n] {
			names = append(names, n)
		}
	}

	for _, backendName := range []string{"mesh", "inmem"} {
		var b Backend = inmemBackend{k: k}
		if backendName == "mesh" {
			mesh, err := NewMeshBackend(k)
			if err != nil {
				t.Fatal(err)
			}
			b = mesh
		}
		s := New(b, Options{})

		// N prior mixed-algorithm jobs dirty the mesh's history.
		for _, name := range names {
			if _, err := s.Submit(Request{Algo: name, Prob: prob}); err != nil {
				t.Fatalf("%s: prior submit %s: %v", backendName, name, err)
			}
		}
		ids := map[string]uint64{}
		for _, name := range names {
			id, err := s.Submit(Request{Algo: name, Prob: prob})
			if err != nil {
				t.Fatalf("%s: submit %s: %v", backendName, name, err)
			}
			ids[name] = id
		}
		for _, name := range names {
			j := waitState(t, s, ids[name])
			if j.State != StateDone {
				t.Fatalf("%s: %s failed: %s", backendName, name, j.Err)
			}
			entry, _ := algo.Lookup(name)
			ref, err := entry.Run(refProb, transport.TCP)
			if err != nil {
				t.Fatal(err)
			}
			if j.Outcome.Hash != ref.Hash {
				t.Errorf("%s: %s after mixed history: hash %016x, fresh reference %016x",
					backendName, name, j.Outcome.Hash, ref.Hash)
			}
			if j.Outcome.Stats.Rounds != ref.Stats.Rounds ||
				j.Outcome.Stats.Words != ref.Stats.Words ||
				j.Outcome.Stats.Messages != ref.Stats.Messages ||
				j.Outcome.Stats.Supersteps != ref.Stats.Supersteps {
				t.Errorf("%s: %s after mixed history: Stats diverge from fresh reference", backendName, name)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosKillMidJobFailsOnlyThatJob: a machine killed mid-job fails
// exactly that job, with the job ID attributed in the error; the
// scheduler rebuilds the mesh and the next job completes.
func TestChaosKillMidJobFailsOnlyThatJob(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()

	kill := func() { b.Sever(2) }
	chaosHook.Store(&kill)
	defer chaosHook.Store(nil)

	id, err := s.Submit(Request{Algo: "testjob-chaos", Prob: algo.Problem{N: 60, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, id)
	if j.State != StateFailed {
		t.Fatalf("severed job %d ended %q, want failed", id, j.State)
	}
	if !strings.Contains(j.Err, "job 1") {
		t.Errorf("failure lost its job attribution: %q", j.Err)
	}

	chaosHook.Store(nil)
	id2, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 120, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	j2 := waitState(t, s, id2)
	if j2.State != StateDone {
		t.Fatalf("job after chaos failed: %s", j2.Err)
	}
	st := s.Stats()
	if st.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", st.Rebuilds)
	}
	entry, _ := algo.Lookup("pagerank")
	ref, err := entry.Run(algo.Problem{N: 120, K: k, Seed: 7}, transport.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Outcome.Hash != ref.Hash {
		t.Errorf("post-chaos job hash %016x, want %016x", j2.Outcome.Hash, ref.Hash)
	}
}

// TestJobDeadline: a per-job timeout fails only that job (through the
// PR 4 context path) and the stream continues.
func TestJobDeadline(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()

	stall := func() { time.Sleep(250 * time.Millisecond) }
	chaosHook.Store(&stall)
	defer chaosHook.Store(nil)
	id, err := s.Submit(Request{Algo: "testjob-chaos", Prob: algo.Problem{N: 60, Seed: 5}, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, id)
	if j.State != StateFailed {
		t.Fatalf("deadlined job ended %q, want failed", j.State)
	}
	if !strings.Contains(j.Err, "deadline") && !strings.Contains(j.Err, "context") {
		t.Errorf("deadline failure reads %q, want a context error", j.Err)
	}

	chaosHook.Store(nil)
	id2, err := s.Submit(Request{Algo: "conncomp", Prob: algo.Problem{N: 120, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitState(t, s, id2); j2.State != StateDone {
		t.Fatalf("job after deadline failure: %s", j2.Err)
	}
}

// TestDrainAndAbort: Drain stops intake with ErrDraining and waits out
// the queue; Abort cancels the in-flight job.
func TestDrainAndAbort(t *testing.T) {
	const k = 3
	s := New(inmemBackend{k: k}, Options{})
	defer s.Close()

	for i := 0; i < 3; i++ {
		if _, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 100, Seed: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 100, Seed: 1}}); err != ErrDraining {
		t.Fatalf("post-drain submit error %v, want ErrDraining", err)
	}
	st := s.Stats()
	if !st.Draining || st.Queued != 0 || st.Running != 0 || st.Done != 3 {
		t.Errorf("post-drain stats %+v", st)
	}
}

// TestSubmitValidation: unknown algorithms, bad sizes, and k mismatches
// are rejected at submit time, before touching the queue.
func TestSubmitValidation(t *testing.T) {
	s := New(inmemBackend{k: 3}, Options{})
	defer s.Close()
	if _, err := s.Submit(Request{Algo: "no-such", Prob: algo.Problem{N: 10}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 0}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 10, K: 5}}); err == nil {
		t.Error("k mismatch accepted")
	}
}

// TestSeveredJobResumesFromCheckpoint is the scheduler half of the
// recovery acceptance bar: a checkpoint-opted job whose machine dies
// mid-run must COMPLETE — mesh rebuilt, state resumed from the per-job
// store — with output hash and Stats bit-identical to an unkilled
// reference, and the recovery visible in its Stats and the scheduler
// gauges.
func TestSeveredJobResumesFromCheckpoint(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()

	// The waypoint disarms itself before severing: the replay reaches
	// machine 1's superstep 2 again, and a re-armed hook would kill the
	// replacement mesh until the retries ran out.
	var kill func()
	kill = func() {
		chaosHook.Store(nil)
		b.Sever(2)
	}
	chaosHook.Store(&kill)
	defer chaosHook.Store(nil)

	prob := algo.Problem{N: 60, Seed: 5, Checkpoint: algo.CheckpointSpec{Every: 1}}
	id, err := s.Submit(Request{Algo: "testjob-chaos", Prob: prob})
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, id)
	if j.State != StateDone {
		t.Fatalf("severed checkpoint-opted job ended %q (err %q), want done", j.State, j.Err)
	}
	if r := j.Outcome.Stats.Recoveries; r != 1 {
		t.Errorf("job reports %d recoveries, want 1", r)
	}

	entry, _ := algo.Lookup("testjob-chaos")
	ref, err := entry.Run(algo.Problem{N: 60, K: k, Seed: 5}, transport.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if j.Outcome.Hash != ref.Hash {
		t.Errorf("recovered job hash %016x, unkilled reference %016x", j.Outcome.Hash, ref.Hash)
	}
	if j.Outcome.Stats.Rounds != ref.Stats.Rounds ||
		j.Outcome.Stats.Words != ref.Stats.Words ||
		j.Outcome.Stats.Supersteps != ref.Stats.Supersteps {
		t.Errorf("recovered job Stats diverge from unkilled reference")
	}
	st := s.Stats()
	if st.Recovered < 1 {
		t.Errorf("scheduler recovered gauge = %d, want >= 1", st.Recovered)
	}
	if st.Failed != 0 {
		t.Errorf("recovered job counted as failed (failed=%d)", st.Failed)
	}

	// The mesh stays serviceable: the next job runs clean.
	id2, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 120, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitState(t, s, id2); j2.State != StateDone {
		t.Fatalf("job after recovery failed: %s", j2.Err)
	}
}

// TestRetriedJobIgnoresAnotherRunsCheckpoint: a job killed before its
// first capture has stored nothing, so its retry must start over — not
// install whatever container of the same k its directory already holds
// from another run, which would end "done" with that run's hash.
func TestRetriedJobIgnoresAnotherRunsCheckpoint(t *testing.T) {
	const k = 3
	dir := t.TempDir()
	entry, _ := algo.Lookup("testjob-chaos")
	if _, err := entry.Run(algo.Problem{N: 60, K: k, Seed: 6,
		Checkpoint: algo.CheckpointSpec{Every: 1, Dir: dir}}, transport.TCP); err != nil {
		t.Fatal(err)
	}
	ref, err := entry.Run(algo.Problem{N: 60, K: k, Seed: 5}, transport.TCP)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()
	var kill func()
	kill = func() {
		chaosHook.Store(nil)
		b.Sever(2)
	}
	chaosHook.Store(&kill)
	defer chaosHook.Store(nil)

	// Every 5 never captures in testjob-chaos's five supersteps.
	id, err := s.Submit(Request{Algo: "testjob-chaos", Prob: algo.Problem{N: 60, Seed: 5,
		Checkpoint: algo.CheckpointSpec{Every: 5, Dir: dir}}})
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, id)
	if j.State != StateDone {
		t.Fatalf("killed job ended %q (err %q), want done", j.State, j.Err)
	}
	if r := j.Outcome.Stats.Recoveries; r != 1 {
		t.Errorf("job reports %d recoveries, want 1", r)
	}
	if j.Outcome.Hash != ref.Hash {
		t.Errorf("retried job hash %016x, unkilled reference %016x", j.Outcome.Hash, ref.Hash)
	}
	if j.Outcome.Stats.Rounds != ref.Stats.Rounds ||
		j.Outcome.Stats.Words != ref.Stats.Words ||
		j.Outcome.Stats.Supersteps != ref.Stats.Supersteps {
		t.Errorf("retried job Stats diverge from unkilled reference")
	}
}

// TestCancelQueuedAndTerminalSemantics: canceling a queued job removes
// it immediately; canceling an unknown ID reports ErrUnknownJob;
// canceling a finished job reports ErrJobFinished with the snapshot.
func TestCancelQueuedAndTerminalSemantics(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()

	// A slow waypoint keeps job 1 running long enough for job 2 to be
	// reliably canceled while still queued.
	stall := func() { time.Sleep(100 * time.Millisecond) }
	chaosHook.Store(&stall)
	defer chaosHook.Store(nil)
	id1, err := s.Submit(Request{Algo: "testjob-chaos", Prob: algo.Problem{N: 60, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Algo: "pagerank", Prob: algo.Problem{N: 120, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Cancel(id2)
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if j2.State != StateCanceled {
		t.Errorf("canceled queued job is %q, want canceled", j2.State)
	}
	if _, err := s.Cancel(9999); err != ErrUnknownJob {
		t.Errorf("cancel of unknown job returned %v, want ErrUnknownJob", err)
	}
	j1 := waitState(t, s, id1)
	if j1.State != StateDone {
		t.Fatalf("job 1 ended %q: %s", j1.State, j1.Err)
	}
	if snap, err := s.Cancel(id1); err != ErrJobFinished {
		t.Errorf("cancel of finished job returned %v, want ErrJobFinished", err)
	} else if snap.State != StateDone {
		t.Errorf("finished-job cancel snapshot is %q, want done", snap.State)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("canceled gauge = %d, want 1", st.Canceled)
	}
}

// TestCancelRunningJob: canceling an in-flight job aborts it through
// its context, records StateCanceled (not failed), and never attempts
// recovery — cancellation is final even for checkpoint-opted jobs.
func TestCancelRunningJob(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{})
	defer s.Close()

	started := make(chan struct{})
	hook := func() {
		close(started)
		time.Sleep(150 * time.Millisecond)
	}
	chaosHook.Store(&hook)
	defer chaosHook.Store(nil)
	id, err := s.Submit(Request{Algo: "testjob-chaos",
		Prob: algo.Problem{N: 60, Seed: 5, Checkpoint: algo.CheckpointSpec{Every: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(id); err != nil {
		t.Fatalf("cancel running job: %v", err)
	}
	j := waitState(t, s, id)
	if j.State != StateCanceled {
		t.Fatalf("canceled running job ended %q (err %q), want canceled", j.State, j.Err)
	}
	st := s.Stats()
	if st.Canceled != 1 || st.Failed != 0 || st.Recovered != 0 || st.Rebuilds != 0 {
		t.Errorf("gauges canceled=%d failed=%d recovered=%d rebuilds=%d, want 1/0/0/0",
			st.Canceled, st.Failed, st.Recovered, st.Rebuilds)
	}
}

// TestRetentionEvictsTerminalJobs: with MaxJobs set, finished jobs are
// evicted oldest-first once the map exceeds the bound; running and
// queued jobs are never evicted, and evicted IDs read as unknown.
func TestRetentionEvictsTerminalJobs(t *testing.T) {
	const k = 3
	b, err := NewMeshBackend(k)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, Options{MaxJobs: 2})
	defer s.Close()

	const jobs = 4
	ids := make([]uint64, jobs)
	for i := range ids {
		id, err := s.Submit(Request{Algo: "conncomp", Prob: algo.Problem{N: 60, Seed: uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if j := waitState(t, s, id); j.State != StateDone {
			t.Fatalf("job %d failed: %s", id, j.Err)
		}
	}
	for _, id := range ids[:jobs-2] {
		if _, ok := s.Get(id); ok {
			t.Errorf("job %d still retained past MaxJobs=2", id)
		}
		if _, err := s.Cancel(id); err != ErrUnknownJob {
			t.Errorf("evicted job %d cancel returned %v, want ErrUnknownJob", id, err)
		}
	}
	for _, id := range ids[jobs-2:] {
		if _, ok := s.Get(id); !ok {
			t.Errorf("job %d evicted although within the MaxJobs bound", id)
		}
	}
	if st := s.Stats(); st.Evicted != jobs-2 {
		t.Errorf("evicted gauge = %d, want %d", st.Evicted, jobs-2)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("retained %d job records, want 2", got)
	}
}

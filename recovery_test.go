package kmachine_test

// Checkpoint/recovery acceptance suite: a run killed with checkpointing
// armed — its victim's Step severs itself, on either link the same way
// (runFaulted) — then resumed from its sink on fresh machines — the pair the
// retry loop in internal/algo performs (its own test covers the loop) —
// must land on output and Stats bit-identical to an unkilled golden
// run, for every registry algorithm, on the in-process link and the
// socket link. Alongside sits the Snapshotter property test: restoring a
// snapshot into an arbitrarily dirty machine must reproduce the
// snapshotted machine's subsequent supersteps bit for bit.

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/obs"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/wire"
	"kmachine/internal/triangle"
)

// fault is what a test arm does to its run besides running it: kill
// machine victim in superstep at (never when at < 0) and, with seen
// set on the socket link, count per superstep the frames written while
// it was open.
type fault struct {
	victim, at int
	seen       *sent
}

var noFault = fault{at: -1}

func killAt(victim, step int) fault { return fault{victim: victim, at: step} }

// sent counts, per superstep, the frames the socket link wrote while the
// superstep was open (a complete superstep writes a batch and a row
// frame per ordered pair). The first count of superstep watch closes
// left.
type sent struct {
	mu    sync.Mutex
	n     map[int]int
	watch int
	left  chan struct{}
}

func newSent(watch int) *sent {
	return &sent{n: map[int]int{}, watch: watch, left: make(chan struct{})}
}

func (s *sent) add(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n[step]++; step == s.watch && s.n[step] == 1 {
		close(s.left)
	}
}

func (s *sent) count(step int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n[step]
}

// Record counts the socket link's frame writes off the run's Recorder.
func (s *sent) Record(sp obs.Span) {
	if sp.Phase == obs.PhaseFrameWrite {
		s.add(int(sp.Superstep))
	}
}

// runArm executes the algorithm once under the checkpoint policy on
// fresh machines, all k in this process on the link kind names, under
// the fault f.
func runArm[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, ck core.CheckpointPolicy, f fault) (O, *core.Stats, error) {
	t.Helper()
	machines := make([]algo.Machine[M, L], k)
	for i := 0; i < k; i++ {
		v, err := in.MachineView(core.MachineID(i))
		if err != nil {
			t.Fatal(err)
		}
		if machines[i], err = a.NewMachine(v); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(failN), Seed: 13,
		SuperstepTimeout: 5 * time.Second, Checkpoint: ck}

	var stats *core.Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		stats, runErr = runFaulted(kind, cfg, a.Codec, func(id core.MachineID) core.Machine[M] { return machines[id] }, f)
		close(done)
	}()
	testutil.WaitOrDump(t, done, 30*time.Second, "checkpointed cluster")
	var out O
	if runErr == nil {
		locals := make([]L, k)
		for i, m := range machines {
			locals[i] = m.Output()
		}
		out = a.Merge(locals)
	}
	return out, stats, runErr
}

// runFaulted runs the k machines on the link kind names under the fault
// f: in process as a Cluster, over sockets as one job on a standing
// loopback mesh. Either way the victim's Step severs it through that
// fabric's Sever, and the survivors find out. Over sockets, f.seen
// counts frame writes off the run's Recorder, and the victim waits for
// the superstep's first frame before it severs.
func runFaulted[M any](kind transport.Kind, cfg core.Config, codec wire.Codec[M], machine func(core.MachineID) core.Machine[M], f fault) (*core.Stats, error) {
	var sever func(int) error
	factory := machine
	if f.at >= 0 {
		factory = func(id core.MachineID) core.Machine[M] {
			if int(id) != f.victim {
				return machine(id)
			}
			return &severing[M]{Machine: machine(id), at: f.at, kill: func() {
				if f.seen != nil {
					select {
					case <-f.seen.left:
					case <-time.After(5 * time.Second):
					}
				}
				sever(f.victim)
			}}
		}
	}
	if kind != transport.TCP {
		c := core.NewCluster(cfg, factory)
		sever = c.Sever
		return c.RunOn(codec)
	}
	lm, err := node.NewLocalMesh(cfg.K)
	if err != nil {
		return nil, err
	}
	defer lm.Close()
	sever = lm.Sever
	if f.seen != nil {
		cfg.Recorder = f.seen
	}
	stats, _, err := node.RunJobLocal(lm, cfg, 1, codec, factory)
	return stats, err
}

// severing is a faulted run's victim: its Step in superstep at runs,
// then kills it. It forwards the machine's state codec, so a checkpointed
// run captures it like any other.
type severing[M any] struct {
	core.Machine[M]
	at   int
	kill func()
}

func (m *severing[M]) Step(ctx *core.StepContext, inbox []core.Envelope[M]) ([]core.Envelope[M], bool) {
	out, done := m.Machine.Step(ctx, inbox)
	if ctx.Superstep == m.at {
		m.kill()
	}
	return out, done
}

func (m *severing[M]) SnapshotState(dst []byte) ([]byte, error) {
	return m.Machine.(core.Snapshotter).SnapshotState(dst)
}

func (m *severing[M]) RestoreState(src []byte) error {
	return m.Machine.(core.Snapshotter).RestoreState(src)
}

// goldenRun is the unkilled arm, checkpointing every `every` supersteps.
func goldenRun[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, every int) (O, *core.Stats) {
	t.Helper()
	out, stats, err := runArm(t, a, in, k, kind, core.CheckpointPolicy{Every: every}, noFault)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return out, stats
}

// killThenResume is one recovery spelled out: a run checkpointing every
// `every` supersteps into a fresh sink is killed by the fault killed —
// which must surface as the attributed machine loss the retry loop
// retries — then a second run of the same computation into that sink,
// under the fault resumed, resumes from it.
func killThenResume[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, every int, killed, resumed fault) (O, *core.Stats) {
	t.Helper()
	ck := core.CheckpointPolicy{Every: every, Sink: core.NewMemorySink(0)}
	_, _, err := runArm(t, a, in, k, kind, ck, killed)
	var me *transport.MachineError
	if !errors.As(err, &me) {
		t.Fatalf("killed run: err %v, want a *transport.MachineError", err)
	}
	out, stats, err := runArm(t, a, in, k, kind, ck, resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return out, stats
}

const recVictim = 3

// recCase is one registry algorithm's row of the recovery matrix: run
// golden and killed arms and compare.
type recCase struct {
	name string
	// killStep places the fault at a superstep the algorithm actually
	// reaches; the cadence of 2 means routing's superstep-0 kill lands
	// before any periodic capture and resumes from an empty sink, while
	// the deeper kills resume from a genuine mid-run checkpoint.
	killStep int
	check    func(t *testing.T, kind transport.Kind, killStep int)
}

// checkRecovered is the generic body of every matrix cell: the resumed
// run's output must be deeply equal to the golden run's and the Stats
// bit-identical.
func checkRecovered[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, killStep int) {
	t.Helper()
	base := runtime.NumGoroutine()
	const every = 2
	goldenOut, goldenStats := goldenRun(t, a, in, k, kind, every)
	gotOut, gotStats := killThenResume(t, a, in, k, kind, every, killAt(recVictim, killStep), noFault)
	if !reflect.DeepEqual(gotOut, goldenOut) {
		t.Errorf("recovered output diverges from unkilled golden run")
	}
	sameStats(t, "recovered-vs-golden", gotStats, goldenStats)
	testutil.NoLeakedGoroutines(t, base)
}

// TestRecoveryRegistryWideBitIdentical kills machine 3 mid-run for
// every registry algorithm on both links and requires
// the acceptance bar of the checkpoint design: the resumed run
// completes with output hash and Stats identical to the unkilled
// golden.
func TestRecoveryRegistryWideBitIdentical(t *testing.T) {
	graphIn := failurePartition(t)
	edgeless := algo.EdgelessInput(algo.Problem{N: failN, K: failK, Seed: 11})
	sortIn := dsort.RandomInput(failN, failK, 11, dsort.UniformKeys)
	sortAlgo, err := dsort.Descriptor(sortIn, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []recCase{
		{"pagerank", 2, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15)), graphIn, failK, kind, ks)
		}},
		{"conncomp", 2, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, conncomp.Descriptor(failN), graphIn, failK, kind, ks)
		}},
		{"triangle", 1, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, triangle.Descriptor(failK, triangle.AlgorithmOptions()), graphIn, failK, kind, ks)
		}},
		{"dsort", 1, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, sortAlgo, edgeless, failK, kind, ks)
		}},
		{"routing", 0, func(t *testing.T, kind transport.Kind, ks int) {
			checkRecovered(t, routing.Descriptor(failN), edgeless, failK, kind, ks)
		}},
	}
	for _, tc := range cases {
		for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				tc.check(t, kind, tc.killStep)
			})
		}
	}
}

// TestRecoveryRestartFromZero arms a cadence beyond the kill superstep,
// so no checkpoint exists when the machine dies: the resume finds an
// empty sink, runs from superstep 0, and still lands on the golden
// output.
func TestRecoveryRestartFromZero(t *testing.T) {
	in := failurePartition(t)
	a := conncomp.Descriptor(failN)
	golden, goldenStats := goldenRun(t, a, in, failK, transport.InMem, 1000)
	got, gotStats := killThenResume(t, a, in, failK, transport.InMem, 1000,
		killAt(recVictim, failStep), noFault)
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("restart-from-zero output diverges from golden")
	}
	sameStats(t, "restart-vs-golden", gotStats, goldenStats)
}

// snapshotRoundTrip is the per-algorithm body of the Snapshotter
// property test: snapshot every machine at its pristine state, dirty
// the machines by running the computation to completion, restore the
// pristine snapshots IN PLACE, and require (a) a re-snapshot is
// byte-identical to the original, and (b) a fresh run over the restored
// machines reproduces the golden output and Stats bit for bit — i.e.
// RestoreState(SnapshotState(m)) yields bit-identical subsequent
// supersteps no matter how dirty the restored object was.
func snapshotRoundTrip[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int) {
	t.Helper()
	run := func(machines []algo.Machine[M, L]) (O, *core.Stats) {
		cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(failN), Seed: 13}
		cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[M] { return machines[id] })
		stats, err := cluster.Run()
		if err != nil {
			t.Fatal(err)
		}
		locals := make([]L, k)
		for i, m := range machines {
			locals[i] = m.Output()
		}
		return a.Merge(locals), stats
	}
	build := func() []algo.Machine[M, L] {
		machines := make([]algo.Machine[M, L], k)
		for i := 0; i < k; i++ {
			v, err := in.MachineView(core.MachineID(i))
			if err != nil {
				t.Fatal(err)
			}
			if machines[i], err = a.NewMachine(v); err != nil {
				t.Fatal(err)
			}
		}
		return machines
	}

	goldenOut, goldenStats := run(build())

	machines := build()
	pristine := make([][]byte, k)
	for i, m := range machines {
		snap, ok := any(m).(core.Snapshotter)
		if !ok {
			t.Fatalf("machine %d (%T) does not implement core.Snapshotter", i, m)
		}
		blob, err := snap.SnapshotState(nil)
		if err != nil {
			t.Fatal(err)
		}
		pristine[i] = blob
	}
	run(machines) // dirty every machine with a full computation
	for i, m := range machines {
		snap := any(m).(core.Snapshotter)
		if err := snap.RestoreState(pristine[i]); err != nil {
			t.Fatalf("restore machine %d: %v", i, err)
		}
		again, err := snap.SnapshotState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, pristine[i]) {
			t.Errorf("machine %d: re-snapshot after restore differs from the original blob", i)
		}
	}
	gotOut, gotStats := run(machines)
	if !reflect.DeepEqual(gotOut, goldenOut) {
		t.Errorf("run over restored machines diverges from golden output")
	}
	sameStats(t, "restored-vs-golden", gotStats, goldenStats)
}

// TestSnapshotRestoreRoundTripRegistryWide runs the Snapshotter
// property test for every registry algorithm's state codec.
func TestSnapshotRestoreRoundTripRegistryWide(t *testing.T) {
	graphIn := failurePartition(t)
	edgeless := algo.EdgelessInput(algo.Problem{N: failN, K: failK, Seed: 11})
	sortIn := dsort.RandomInput(failN, failK, 11, dsort.UniformKeys)
	sortAlgo, err := dsort.Descriptor(sortIn, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("pagerank", func(t *testing.T) {
		snapshotRoundTrip(t, pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15)), graphIn, failK)
	})
	t.Run("conncomp", func(t *testing.T) {
		snapshotRoundTrip(t, conncomp.Descriptor(failN), graphIn, failK)
	})
	t.Run("triangle", func(t *testing.T) {
		snapshotRoundTrip(t, triangle.Descriptor(failK, triangle.AlgorithmOptions()), graphIn, failK)
	})
	t.Run("dsort", func(t *testing.T) {
		snapshotRoundTrip(t, sortAlgo, edgeless, failK)
	})
	t.Run("routing", func(t *testing.T) {
		snapshotRoundTrip(t, routing.Descriptor(failN), edgeless, failK)
	})
}

package kmachine_test

// Checkpoint/recovery acceptance suite: a run killed with checkpointing
// armed, then resumed from its sink on a fresh transport — the pair the
// retry loop in internal/algo performs (its own test covers the loop) —
// must land on output and Stats bit-identical to an unkilled golden
// run, for every registry algorithm, on the loopback and the TCP
// substrate. Alongside sits the Snapshotter property test: restoring a
// snapshot into an arbitrarily dirty machine must reproduce the
// snapshotted machine's subsequent supersteps bit for bit.

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/chaos"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/triangle"
)

// runArm executes the algorithm once under the checkpoint policy on
// fresh machines and a fresh transport of kind, which wrap, when
// non-nil, decorates — with a fault, a spy, or both.
func runArm[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, ck core.CheckpointPolicy, wrap func(core.Transport[M]) core.Transport[M]) (O, *core.Stats, error) {
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
	cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[M] { return machines[id] })
	tr, err := core.OpenTransport[M](kind, k, a.Codec)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		tr = wrap(tr)
	}
	defer tr.Close()

	var stats *core.Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		stats, runErr = cluster.RunOn(tr, a.Codec)
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

// killAt wraps a transport with the chaos fault that kills recVictim at
// superstep step: a severed machine on TCP, a synthesized death
// elsewhere.
func killAt[M any](step int) func(core.Transport[M]) core.Transport[M] {
	return func(tr core.Transport[M]) core.Transport[M] {
		if tt, ok := tr.(*tcp.Transport[M]); ok {
			return chaos.Wrap[M](tr, chaos.DropConnAt(recVictim, step, func() { tt.SeverMachine(recVictim) }))
		}
		return chaos.Wrap[M](tr, chaos.KillAt(recVictim, step))
	}
}

// goldenRun is the unkilled arm, checkpointing every `every` supersteps.
func goldenRun[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, every int) (O, *core.Stats) {
	t.Helper()
	out, stats, err := runArm(t, a, in, k, kind, core.CheckpointPolicy{Every: every}, nil)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	return out, stats
}

// killThenResume is one recovery spelled out: a run checkpointing every
// `every` supersteps into a fresh sink is killed at killStep — which
// must surface as the attributed machine loss the retry loop retries —
// then a second run, wrapped by resumed, resumes from that sink.
func killThenResume[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], in partition.Input, k int,
	kind transport.Kind, every int, killed, resumed func(core.Transport[M]) core.Transport[M]) (O, *core.Stats) {
	t.Helper()
	ck := core.CheckpointPolicy{Every: every, Sink: core.NewMemorySink(0)}
	_, _, err := runArm(t, a, in, k, kind, ck, killed)
	var me *transport.MachineError
	if !errors.As(err, &me) {
		t.Fatalf("killed run: err %v, want a *transport.MachineError", err)
	}
	ck.Resume = true
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
	gotOut, gotStats := killThenResume(t, a, in, k, kind, every, killAt[M](killStep), nil)
	if !reflect.DeepEqual(gotOut, goldenOut) {
		t.Errorf("recovered output diverges from unkilled golden run")
	}
	sameStats(t, "recovered-vs-golden", gotStats, goldenStats)
	testutil.NoLeakedGoroutines(t, base)
}

// TestRecoveryRegistryWideBitIdentical kills machine 3 mid-run for
// every registry algorithm on both in-process substrates and requires
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
		killAt[conncomp.Wire](failStep), nil)
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
		tr := inmem.New[M](k)
		defer tr.Close()
		stats, err := cluster.RunOn(tr, nil)
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

package kmachine_test

// Failure-injection suite over the real algorithm stack: kill machine j
// at superstep s — its own Step severs it, through Cluster.Sever in
// process and LocalMesh.Sever over sockets (runFaulted) — and assert the
// failure-hardened runtime's guarantees end to end for pagerank and
// conncomp:
//
//   - the run returns a non-nil error within the configured
//     SuperstepTimeout (never hangs);
//   - the error wraps a *transport.MachineError attributing the failure
//     to the killed machine and the kill superstep;
//   - teardown is goroutine-clean;
//   - and on the happy path the new knobs change nothing: a run with a
//     generous SuperstepTimeout is bit-identical to one without.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"kmachine"
	"kmachine/internal/algo"
	"kmachine/internal/conncomp"
	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
)

const (
	failN      = 150
	failK      = 6
	failVictim = 3
	failStep   = 2
)

// runKilled executes the algorithm with failVictim killed at failStep,
// returning the run error. The generic helper is what makes the suite
// registry-shaped: any Algorithm descriptor slots in.
func runKilled[M, L, O any](t *testing.T, a algo.Algorithm[M, L, O], p *partition.VertexPartition, kind transport.Kind) error {
	t.Helper()
	_, _, err := runArm(t, a, p, p.K, kind, core.CheckpointPolicy{}, killAt(failVictim, failStep))
	return err
}

// killCase is one row of the registry-shaped kill table.
type killCase struct {
	name string
	run  func(t *testing.T, kind transport.Kind) error
}

func failurePartition(t testing.TB) *partition.VertexPartition {
	t.Helper()
	g := gen.Gnp(failN, 0.05, 31)
	return partition.NewRVP(g, failK, 32)
}

func TestKillMachineMidRunAttributedOnEverySubstrate(t *testing.T) {
	cases := []killCase{
		{"pagerank", func(t *testing.T, kind transport.Kind) error {
			return runKilled(t, pagerank.Descriptor(failN, pagerank.AlgorithmOne(0.15)), failurePartition(t), kind)
		}},
		{"conncomp", func(t *testing.T, kind transport.Kind) error {
			return runKilled(t, conncomp.Descriptor(failN), failurePartition(t), kind)
		}},
	}
	for _, tc := range cases {
		for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				base := runtime.NumGoroutine()
				err := tc.run(t, kind)
				if err == nil {
					t.Fatal("run with a killed machine terminated without error")
				}
				var me *transport.MachineError
				if !errors.As(err, &me) {
					t.Fatalf("error %v carries no machine attribution", err)
				}
				if int(me.Machine) != failVictim {
					t.Errorf("failure attributed to machine %d, want %d (err: %v)", me.Machine, failVictim, err)
				}
				if me.Superstep != failStep {
					t.Errorf("failure attributed to superstep %d, want %d (err: %v)", me.Superstep, failStep, err)
				}
				testutil.NoLeakedGoroutines(t, base)
			})
		}
	}
}

// TestSuperstepTimeoutHappyPathIdentical: with no failure, a run under
// a per-superstep deadline must be bit-identical — Stats and outputs —
// to one without, on both substrates, through the PUBLIC RunConfig
// knob. This is the "deadline semantics leave the golden hashes
// unchanged" half of the acceptance criteria.
func TestSuperstepTimeoutHappyPathIdentical(t *testing.T) {
	g := kmachine.Gnp(300, 0.008, 56)
	p := kmachine.RandomVertexPartition(g, 4, 57)
	for _, kind := range []kmachine.TransportKind{kmachine.TransportInMem, kmachine.TransportTCP} {
		plain, err := kmachine.ConnectedComponentsOver(kmachine.RunConfig{Transport: kind}, p, 0, 58)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := kmachine.ConnectedComponentsOver(
			kmachine.RunConfig{Transport: kind, SuperstepTimeout: 30 * time.Second}, p, 0, 58)
		if err != nil {
			t.Fatal(err)
		}
		sameStats(t, "timeout-vs-plain/"+string(kind), timed.Stats, plain.Stats)
		if timed.Components != plain.Components {
			t.Errorf("%s: components %d with timeout, %d without", kind, timed.Components, plain.Components)
		}
		for v := range plain.Label {
			if timed.Label[v] != plain.Label[v] {
				t.Fatalf("%s: vertex %d label diverges under SuperstepTimeout", kind, v)
			}
		}
	}
}

// TestStepOutlastingSuperstepTimeout: the wire is live while machines
// compute, so SuperstepTimeout covers the whole superstep, Begin through
// the round — a machine whose Step outlasts it must end the run with a
// deadline error (on the socket substrate, where the peers' bounded
// reads are what notices, a machine-attributed one), not with a late
// success.
func TestStepOutlastingSuperstepTimeout(t *testing.T) {
	const k, slow, slowStep = 3, 1, 2
	const timeout = 150 * time.Millisecond
	for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
		t.Run(string(kind), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := core.Config{K: k, Bandwidth: 1, Seed: 1, MaxSupersteps: 50, SuperstepTimeout: timeout}
			factory := func(core.MachineID) core.Machine[conncomp.Wire] {
				return core.MachineFunc[conncomp.Wire](func(ctx *core.StepContext, _ []core.Envelope[conncomp.Wire]) ([]core.Envelope[conncomp.Wire], bool) {
					if ctx.Self == slow && ctx.Superstep == slowStep {
						time.Sleep(4 * timeout)
					}
					return []core.Envelope[conncomp.Wire]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 1}}, false
				})
			}
			stats, err := runFaulted(kind, cfg, conncomp.WireCodec(), factory, noFault)
			if err == nil {
				t.Fatal("a Step four timeouts long did not fail the run")
			}
			switch kind {
			case transport.InMem:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("error %v is not a deadline error", err)
				}
			case transport.TCP:
				// The survivors' bounded reads of the slow machine expire,
				// and the cascade their teardown starts races the slow
				// machine's own failure; what holds is attribution to the
				// superstep.
				var me *transport.MachineError
				if !errors.As(err, &me) {
					t.Errorf("tcp error %v carries no machine attribution", err)
				} else if me.Superstep != slowStep {
					t.Errorf("failure attributed to superstep %d, want %d", me.Superstep, slowStep)
				}
			}
			if stats.Supersteps != slowStep {
				t.Errorf("stats account %d supersteps, want %d (the slow one was never delivered)", stats.Supersteps, slowStep)
			}
			testutil.NoLeakedGoroutines(t, base)
		})
	}
}

// TestPublicAPICancellation: a pre-canceled RunConfig.Context must
// abort any public entry point with a wrapped context error and partial
// cleanup, not run the computation.
func TestPublicAPICancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := kmachine.Gnp(200, 0.04, 51)
	p := kmachine.RandomVertexPartition(g, 4, 52)
	_, err := kmachine.PageRank(p, kmachine.PageRankConfig{
		RunConfig: kmachine.RunConfig{Context: ctx}, Seed: 53,
	})
	if err == nil {
		t.Fatal("pre-canceled context did not abort the run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

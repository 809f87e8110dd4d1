package node

// White-box tests for the socket link's ruling: every node rules the
// same k rows through its own core.Coordinator, so every node — not
// only machine 0, which is all core.DriveAll returns — must end a run
// with the same Stats or the same abort message.

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
)

// runEveryNode drives the k machines of cfg over a fresh loopback mesh
// through core.DriveAll, as RunJobLocal does, and returns every node's
// Stats — its own replica's — and error.
func runEveryNode(t *testing.T, cfg core.Config, factory func(core.MachineID) core.Machine[failMsg]) ([]*core.Stats, []error) {
	t.Helper()
	links := make([]*socketLink[failMsg], cfg.K)
	coords := make([]*core.Coordinator, cfg.K)
	errs := make([]error, cfg.K)
	runCluster(t, cfg.K, func(eps []*tcp.Endpoint[failMsg]) {
		for i := range links {
			links[i] = newSocketLink(cfg, i, eps[i])
			coords[i] = links[i].coord
		}
		core.DriveAll(cfg, coords, func(i int) core.Driver[failMsg] {
			return core.Driver[failMsg]{Config: cfg, ID: i, Machine: factory(core.MachineID(i)), Link: links[i], Codec: failCodec{}}
		}, func(i int, err error) { errs[i] = err; eps[i].Close() })
	})
	stats := make([]*core.Stats, cfg.K)
	for i, l := range links {
		stats[i] = l.coord.Stats()
	}
	return stats, errs
}

// runFromCuts is runEveryNode with node i handed cut(i) directly — its
// part and its replica's Stats, or superstep 0 when nil — instead of
// the run's one cut, and returns every node's error.
func runFromCuts(t *testing.T, cfg core.Config, factory func(core.MachineID) core.Machine[failMsg], cut func(i int) *core.Cut) []error {
	t.Helper()
	errs := make([]error, cfg.K)
	runCluster(t, cfg.K, func(eps []*tcp.Endpoint[failMsg]) {
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				link := newSocketLink(cfg, i, eps[i])
				d := core.Driver[failMsg]{Config: cfg, ID: i, Machine: factory(core.MachineID(i)), Link: link, Codec: failCodec{}}
				if d.Resume = cut(i); d.Resume != nil {
					errs[i] = link.coord.Restore(d.Resume.Stats)
				}
				if errs[i] == nil {
					_, errs[i] = core.Drive(d)
				}
				if errs[i] != nil {
					eps[i].Close()
				}
			}()
		}
		wg.Wait()
	})
	return errs
}

// runCluster runs run over the endpoints of a fresh loopback mesh, fails
// the test with a goroutine dump unless it returns within 30s, and
// closes the endpoints.
func runCluster(t *testing.T, k int, run func(eps []*tcp.Endpoint[failMsg])) {
	t.Helper()
	eps := loopbackEndpoints(t, k)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	done := make(chan struct{})
	go func() { run(eps); close(done) }()
	testutil.WaitOrDump(t, done, 30*time.Second, "cluster")
}

func ckFactory(id core.MachineID) core.Machine[failMsg] { return &ckMachine{self: id} }

func TestEveryNodeRulesAlike(t *testing.T) {
	const k = 4
	cfg := core.Config{K: k, Bandwidth: 1, Seed: 77}

	t.Run("stop", func(t *testing.T) {
		stats, errs := runEveryNode(t, cfg, ckFactory)
		for i := range stats {
			if errs[i] != nil {
				t.Fatalf("machine %d: %v", i, errs[i])
			}
			if !reflect.DeepEqual(stats[i], stats[0]) {
				t.Errorf("machine %d Stats %+v, machine 0 %+v", i, stats[i], stats[0])
			}
		}
		if len(stats[0].PerSuperstep) != ckLastStep {
			t.Errorf("%d per-superstep rows, want %d", len(stats[0].PerSuperstep), ckLastStep)
		}
	})

	t.Run("abort", func(t *testing.T) {
		_, errs := runEveryNode(t, cfg, func(id core.MachineID) core.Machine[failMsg] {
			m := &ckMachine{self: id}
			return core.MachineFunc[failMsg](func(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
				if id == 2 && ctx.Superstep == 3 {
					panic("boom")
				}
				return m.Step(ctx, inbox)
			})
		})
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "machine 2 panicked in superstep 3") {
			t.Fatalf("machine 0 returned %v, want machine 2's panic", errs[0])
		}
		for i, err := range errs {
			if err == nil || err.Error() != errs[0].Error() {
				t.Errorf("machine %d returned %v, machine 0 %v", i, err, errs[0])
			}
		}
	})

	t.Run("resume", func(t *testing.T) {
		golden, _ := runEveryNode(t, cfg, ckFactory)
		sink := core.NewMemorySink()
		ck := cfg
		ck.Checkpoint = core.CheckpointPolicy{Every: 4, Sink: sink}
		runEveryNode(t, ck, ckFactory)
		if step, _, _ := sink.Latest(); step < 0 {
			t.Fatal("no checkpoint to resume from")
		}
		resumed, errs := runEveryNode(t, ck, ckFactory)
		for i := range resumed {
			if errs[i] != nil {
				t.Fatalf("machine %d: %v", i, errs[i])
			}
			if !reflect.DeepEqual(resumed[i], golden[i]) {
				t.Errorf("machine %d after resume: %+v, uninterrupted %+v", i, resumed[i], golden[i])
			}
		}
	})
}

// TestResumeDisagreementFailsOnTheDataPlane: a one-process run opens
// its cut once (core.DriveAll), but the processes of a multi-process
// cluster could each open another, and no round checks the choice
// before the loop. Here the nodes are handed different cuts directly:
// machine k-1 none, so it starts at superstep 0, while its peers start
// past the cut. The first batches fail their superstep check: every
// node returns an error attributed to a machine, none runs on with a
// mixed cluster, and nothing hangs or leaks.
func TestResumeDisagreementFailsOnTheDataPlane(t *testing.T) {
	const k = 4
	base := runtime.NumGoroutine()
	sink := core.NewMemorySink()
	cfg := core.Config{K: k, Bandwidth: 1, Seed: 77, Checkpoint: core.CheckpointPolicy{Every: 4, Sink: sink}}
	runEveryNode(t, cfg, ckFactory)
	cut, err := core.NewAssembler(cfg.Checkpoint, k).LatestCut()
	if err != nil || cut == nil {
		t.Fatalf("no checkpoint to resume from (%v)", err)
	}
	errs := runFromCuts(t, cfg, ckFactory, func(i int) *core.Cut {
		if i == k-1 {
			return nil
		}
		return cut
	})
	for i, err := range errs {
		var me *transport.MachineError
		if !errors.As(err, &me) {
			t.Errorf("machine %d returned %v, want a MachineError", i, err)
		}
	}
	testutil.NoLeakedGoroutines(t, base)
}

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
)

// runEveryNode drives the k machines of cfg over a fresh loopback mesh,
// one runNode per goroutine sharing one checkpoint assembler, and
// returns every node's Stats and error.
func runEveryNode(t *testing.T, cfg core.Config, factory func(core.MachineID) core.Machine[failMsg]) ([]*core.Stats, []error) {
	t.Helper()
	asm := core.NewAssembler(cfg.Checkpoint, cfg.K)
	return runNodes(t, cfg, factory, func(int) *core.Assembler { return asm })
}

// runNodes is runEveryNode with node i's checkpoint assembler asm(i).
func runNodes(t *testing.T, cfg core.Config, factory func(core.MachineID) core.Machine[failMsg], asm func(i int) *core.Assembler) ([]*core.Stats, []error) {
	t.Helper()
	eps := loopbackEndpoints(t, cfg.K)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	stats := make([]*core.Stats, cfg.K)
	errs := make([]error, cfg.K)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if stats[i], errs[i] = runNode(cfg, i, eps[i], factory(core.MachineID(i)), failCodec{}, asm(i)); errs[i] != nil {
				eps[i].Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	testutil.WaitOrDump(t, done, 30*time.Second, "cluster")
	return stats, errs
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
		if errs[k-1] != nil {
			t.Fatal(errs[k-1])
		}
		if !reflect.DeepEqual(resumed[k-1], golden[k-1]) {
			t.Errorf("machine %d after resume: %+v, uninterrupted %+v", k-1, resumed[k-1], golden[k-1])
		}
	})
}

// TestResumeDisagreementFailsOnTheDataPlane: every node opens the latest
// cut itself, and no round checks the choice before the loop. Here
// machine k-1's sink is empty while its peers resume from a cut, so it
// starts at superstep 0 and they start past the cut. The first batches
// fail their superstep check: every node returns an error attributed to
// a machine, none runs on with a mixed cluster, and nothing hangs or
// leaks.
func TestResumeDisagreementFailsOnTheDataPlane(t *testing.T) {
	const k = 4
	base := runtime.NumGoroutine()
	sink := core.NewMemorySink()
	cfg := core.Config{K: k, Bandwidth: 1, Seed: 77, Checkpoint: core.CheckpointPolicy{Every: 4, Sink: sink}}
	runEveryNode(t, cfg, ckFactory)
	if step, _, _ := sink.Latest(); step < 0 {
		t.Fatal("no checkpoint to resume from")
	}
	shared := core.NewAssembler(cfg.Checkpoint, k)
	empty := cfg.Checkpoint
	empty.Sink = core.NewMemorySink()
	lone := core.NewAssembler(empty, k)
	_, errs := runNodes(t, cfg, ckFactory, func(i int) *core.Assembler {
		if i == k-1 {
			return lone
		}
		return shared
	})
	for i, err := range errs {
		var me *transport.MachineError
		if !errors.As(err, &me) {
			t.Errorf("machine %d returned %v, want a MachineError", i, err)
		}
	}
	testutil.NoLeakedGoroutines(t, base)
}

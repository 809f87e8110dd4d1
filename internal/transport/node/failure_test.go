package node

// White-box failure tests for the socket link: they drive runNode
// directly over a real loopback-TCP mesh so a machine's
// "process" can be killed (its endpoint torn down) or wedged (its Step
// stalled past the deadline) at a chosen superstep, and assert the
// acceptance bar of the failure-hardening work: every surviving machine
// returns a non-nil machine-attributed error within SuperstepTimeout,
// and the teardown is goroutine-clean.

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

type failMsg struct{ X int64 }

type failCodec struct{}

func (failCodec) Append(dst []byte, m failMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.X), nil
}

func (failCodec) Decode(src []byte) (failMsg, int, error) {
	c := wire.Cursor{Src: src}
	m := failMsg{X: c.Varint()}
	return m, c.Off, c.Err
}

// loopbackEndpoints attaches a single run's (job 0) endpoint to every
// machine of a fresh k-machine loopback mesh.
func loopbackEndpoints(t *testing.T, k int) []*tcp.Endpoint[failMsg] {
	t.Helper()
	ms, err := tcp.NewLoopbackMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := attach(ms, failCodec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// runMeshWithFault spawns k runNodes over a fresh loopback mesh; the
// victim machine executes onVictimStep(eps) inside its Step at
// superstep failStep (before emitting). Machines chatter endlessly, so
// only the fault can end the run: each emits a three-envelope batch to
// `eager` peers, written with its row in the round, and leaves one
// envelope for its ring neighbour. Returns the k runNode errors once
// every loop has exited; a cluster that fails to drain within 30s fails
// the test with a full goroutine dump, the hang the fault must not cause.
func runMeshWithFault(t *testing.T, k, eager, victim, failStep int, timeout time.Duration, onVictimStep func(eps []*tcp.Endpoint[failMsg])) []error {
	t.Helper()
	eps := loopbackEndpoints(t, k)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	factory := func(id core.MachineID) core.Machine[failMsg] {
		return core.MachineFunc[failMsg](func(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
			if int(ctx.Self) == victim && ctx.Superstep == failStep {
				onVictimStep(eps)
			}
			for i := 2; i < 2+eager; i++ {
				to := core.MachineID((int(ctx.Self) + i) % k)
				core.EmitBatch(ctx, to, []core.Envelope[failMsg]{{To: to, Words: 1}, {To: to, Words: 1}, {To: to, Words: 1}})
			}
			return []core.Envelope[failMsg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 1}}, false
		})
	}

	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := core.Config{K: k, Bandwidth: 1, Seed: 7, SuperstepTimeout: timeout}
			_, errs[i] = runNode(cfg, i, eps[i], factory(core.MachineID(i)), nil, nil)
			if errs[i] != nil {
				eps[i].Close()
			}
		}(i)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	testutil.WaitOrDump(t, done, 30*time.Second, "cluster")
	return errs
}

// assertSurvivorsAttribute checks that every machine except the victim
// returned an error attributed to the victim.
func assertSurvivorsAttribute(t *testing.T, errs []error, victim int) {
	t.Helper()
	for i, err := range errs {
		if i == victim {
			// The victim's own loop fails on its severed sockets; the
			// shape of its error is unspecified but it must not succeed.
			if err == nil {
				t.Errorf("victim machine %d returned no error", i)
			}
			continue
		}
		if err == nil {
			t.Fatalf("surviving machine %d returned nil error after machine %d failed", i, victim)
		}
		var me *transport.MachineError
		if !errors.As(err, &me) {
			t.Errorf("machine %d error %v carries no machine attribution", i, err)
			continue
		}
		if int(me.Machine) != victim {
			t.Errorf("machine %d attributes the failure to machine %d, want %d (err: %v)", i, me.Machine, victim, err)
		}
	}
}

// TestCrashedNodeSurfacesOnAllSurvivors kills the victim's endpoint —
// listener and every connection, exactly what its process dying looks
// like to the peers — and requires every surviving machine to return an
// error attributed to the victim, with no goroutines left behind. With
// every pair's writes in flight when it dies, a survivor's write often hits
// a bystander that already failed over the victim and closed; that
// survivor must still name the victim, which the bystander's blame
// frame says, not the bystander its write found gone. Ten kills make
// the race all but certain to show.
func TestCrashedNodeSurfacesOnAllSurvivors(t *testing.T) {
	for _, c := range []struct{ k, eager, victim, step, kills int }{
		{k: 4, eager: 0, victim: 2, step: 1, kills: 1},
		{k: 6, eager: 4, victim: 3, step: 2, kills: 10},
	} {
		for range c.kills {
			base := runtime.NumGoroutine()
			errs := runMeshWithFault(t, c.k, c.eager, c.victim, c.step, 2*time.Second, func(eps []*tcp.Endpoint[failMsg]) {
				eps[c.victim].Close()
			})
			assertSurvivorsAttribute(t, errs, c.victim)
			testutil.NoLeakedGoroutines(t, base)
		}
	}
}

// TestWedgedNodeTimesOutOnSurvivors stalls machine 1 inside its Step
// for far longer than SuperstepTimeout: the survivors' reads must time
// out within the deadline — attributed to the wedged machine, wrapping
// os.ErrDeadlineExceeded — rather than wait the stall out.
func TestWedgedNodeTimesOutOnSurvivors(t *testing.T) {
	base := runtime.NumGoroutine()
	const (
		k, victim, step = 3, 1, 1
		timeout         = 300 * time.Millisecond
		stall           = 1500 * time.Millisecond
	)
	start := time.Now()
	errs := runMeshWithFault(t, k, 0, victim, step, timeout, func([]*tcp.Endpoint[failMsg]) {
		time.Sleep(stall)
	})
	elapsed := time.Since(start)

	// The wedged machine itself eventually finishes its sleep and fails
	// on the by-then-severed mesh, so the victim slot may hold any
	// error; the survivors must all attribute the timeout to it.
	assertSurvivorsAttribute(t, errs, victim)
	deadlineSeen := false
	for i, err := range errs {
		if i != victim && errors.Is(err, os.ErrDeadlineExceeded) {
			deadlineSeen = true
		}
	}
	if !deadlineSeen {
		t.Errorf("no survivor reported os.ErrDeadlineExceeded; errors: %v", errs)
	}
	// The full join waits for the victim's stall to end (its goroutine
	// must exit for the leak check) but must not stack timeouts on top.
	if elapsed > stall+5*time.Second {
		t.Errorf("cluster took %v to drain, want ≈ the %v stall", elapsed, stall)
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestCanceledContextAbortsNodeRun: cancellation via Config.Context
// must abort a healthy, endlessly chattering cluster with an error on
// every machine and a goroutine-clean teardown.
func TestCanceledContextAbortsNodeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 3
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := RunLocal(core.Config{K: k, Bandwidth: 1, Seed: 3, Context: ctx},
			failCodec{}, func(id core.MachineID) core.Machine[failMsg] {
				return core.MachineFunc[failMsg](func(sctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
					return []core.Envelope[failMsg]{{To: core.MachineID((int(sctx.Self) + 1) % k), Words: 1}}, false
				})
			})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run terminated without error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the cluster")
	}
	testutil.NoLeakedGoroutines(t, base)
}

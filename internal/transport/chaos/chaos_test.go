package chaos_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/transport"
	"kmachine/internal/transport/chaos"
	"kmachine/internal/transport/inmem"
)

type msg struct{ X int64 }

// chatter names the two ways a machine can put its ring envelope in
// flight forever (so a run only ends when a fault ends it): returned as
// a rest envelope, shipped at Finish, or emitted mid-Step, so the fault
// lands while a batch is already in flight. Faults fire in Finish either
// way, and every attribution case below must hold for both.
var chatter = map[string]func(k int) func(core.MachineID) core.Machine[msg]{
	"rest": func(k int) func(core.MachineID) core.Machine[msg] {
		return func(core.MachineID) core.Machine[msg] {
			return core.MachineFunc[msg](func(ctx *core.StepContext, inbox []core.Envelope[msg]) ([]core.Envelope[msg], bool) {
				return []core.Envelope[msg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 1}}, false
			})
		}
	},
	"emitted": func(k int) func(core.MachineID) core.Machine[msg] {
		return func(core.MachineID) core.Machine[msg] {
			return core.MachineFunc[msg](func(ctx *core.StepContext, inbox []core.Envelope[msg]) ([]core.Envelope[msg], bool) {
				to := core.MachineID((int(ctx.Self) + 1) % k)
				batch := []core.Envelope[msg]{{To: to, Words: 1}}
				if !core.EmitBatch(ctx, to, batch) {
					panic("engine did not take an eager batch")
				}
				return nil, false
			})
		}
	},
}

func TestKillAtReturnsAttributedError(t *testing.T) {
	const k, victim, step = 4, 2, 3
	for name, factory := range chatter {
		t.Run(name, func(t *testing.T) {
			tr := chaos.Wrap(inmem.New[msg](k), chaos.KillAt(victim, step))
			defer tr.Close()
			c := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 1, MaxSupersteps: 100}, factory(k))
			stats, err := c.RunOn(tr, nil)
			if err == nil {
				t.Fatal("killed cluster terminated without error")
			}
			var me *transport.MachineError
			if !errors.As(err, &me) {
				t.Fatalf("error %v carries no machine attribution", err)
			}
			if me.Machine != victim || me.Superstep != step {
				t.Errorf("attributed to machine %d superstep %d, want %d/%d", me.Machine, me.Superstep, victim, step)
			}
			if !errors.Is(err, chaos.ErrKilled) {
				t.Errorf("error %v does not wrap ErrKilled", err)
			}
			// A superstep is delivered, then charged — on every link — so
			// the superstep the kill lands in, which never was delivered,
			// is not in the partial stats.
			if stats == nil || stats.Supersteps != step {
				t.Errorf("stats account %d supersteps, want %d (the kill superstep was never delivered)", stats.Supersteps, step)
			}
		})
	}
}

func TestDelayOverrunsSuperstepTimeout(t *testing.T) {
	const k = 3
	for name, factory := range chatter {
		t.Run(name, func(t *testing.T) {
			// 30s of injected latency against a 50ms per-superstep deadline:
			// the run must fail within the deadline, not sleep the delay out.
			tr := chaos.Wrap(inmem.New[msg](k), chaos.DelayAt(1, 30*time.Second))
			defer tr.Close()
			c := core.NewCluster(core.Config{
				K: k, Bandwidth: 1, Seed: 1, MaxSupersteps: 100,
				SuperstepTimeout: 50 * time.Millisecond,
			}, factory(k))
			start := time.Now()
			_, err := c.RunOn(tr, nil)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("delayed superstep did not error")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
			}
			if elapsed > 5*time.Second {
				t.Errorf("deadline took %v to fire, want ~50ms", elapsed)
			}
		})
	}
}

// TestHappyPathPassThrough: an inert chaos wrapper (no due faults) must
// be invisible — same Stats as the bare loopback.
func TestHappyPathPassThrough(t *testing.T) {
	const k = 4
	run := func(tr core.Transport[msg]) *core.Stats {
		t.Helper()
		factory := func(id core.MachineID) core.Machine[msg] {
			return core.MachineFunc[msg](func(ctx *core.StepContext, inbox []core.Envelope[msg]) ([]core.Envelope[msg], bool) {
				if ctx.Superstep >= 5 {
					return nil, true
				}
				return []core.Envelope[msg]{{To: core.MachineID((int(ctx.Self) + 1) % k), Words: 2}}, false
			})
		}
		c := core.NewCluster(core.Config{K: k, Bandwidth: 1, Seed: 9}, factory)
		stats, err := c.RunOn(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(inmem.New[msg](k))
	wrapped := run(chaos.Wrap(inmem.New[msg](k), chaos.KillAt(1, 10_000)))
	if plain.Rounds != wrapped.Rounds || plain.Words != wrapped.Words || plain.Supersteps != wrapped.Supersteps {
		t.Errorf("chaos wrapper changed the happy path: %+v vs %+v", wrapped, plain)
	}
}

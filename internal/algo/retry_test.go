package algo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// ringMachine passes a draw from its random stream around the ring —
// forward, or back when back is set — for ringSteps supersteps and sums
// what it receives, so its output depends on the seed and on every
// restored quantity of a cut.
type ringMachine struct {
	self core.MachineID
	back bool
	sum  int64
}

const ringK, ringSteps = 4, 6

func (m *ringMachine) Step(ctx *core.StepContext, inbox []core.Envelope[echoMsg]) ([]core.Envelope[echoMsg], bool) {
	for _, e := range inbox {
		m.sum += e.Msg.X
	}
	if ctx.Superstep >= ringSteps {
		return nil, true
	}
	to := (int(m.self) + 1) % ctx.K
	if m.back {
		to = (int(m.self) + ctx.K - 1) % ctx.K
	}
	return []core.Envelope[echoMsg]{{To: core.MachineID(to), Words: 1,
		Msg: echoMsg{X: int64(ctx.RNG.Uint64() % 1000)}}}, false
}

func (m *ringMachine) Output() int64 { return m.sum }

func (m *ringMachine) SnapshotState(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, m.sum), nil
}

func (m *ringMachine) RestoreState(src []byte) error {
	c := &wire.Cursor{Src: src}
	m.sum = c.Varint()
	return c.Finish()
}

// chaosSite is the in-process cluster whose first kills attempts lose
// machine 1 at superstep killAt: its Step severs it once it has run. It
// records the superstep of the cut every attempt starts from (-1: none,
// superstep 0); after, when non-nil, runs once an attempt has returned.
type chaosSite struct {
	cfg           core.Config
	kills, killAt int
	attempts      []int
	after         func()
}

func (cs *chaosSite) site() site[echoMsg] {
	return site[echoMsg]{cfg: cs.cfg,
		run: func(cfg core.Config, machine func(core.MachineID) core.Machine[echoMsg]) (*core.Stats, transport.WireStats, error) {
			var c *core.Cluster[echoMsg]
			kill := len(cs.attempts) < cs.kills
			c = core.NewCluster(cfg, func(id core.MachineID) core.Machine[echoMsg] {
				m := machine(id)
				if id != 1 || !kill {
					return m
				}
				return &severing{Machine: m, at: cs.killAt, kill: func() { c.Sever(1) }}
			})
			from := -1
			if asm := core.NewAssembler(cfg.Checkpoint, cfg.K); asm != nil {
				if cut, err := asm.LatestCut(); err != nil {
					return nil, transport.WireStats{}, err
				} else if cut != nil {
					from = cut.Step
				}
			}
			cs.attempts = append(cs.attempts, from)
			stats, err := c.RunOn(echoCodec{})
			if cs.after != nil {
				cs.after()
			}
			return stats, transport.WireStats{}, err
		}}
}

// severing is a chaosSite victim: its Step in superstep at runs, then
// kills it. It forwards the machine's state codec, so a checkpointed run
// captures it like any other.
type severing struct {
	core.Machine[echoMsg]
	at   int
	kill func()
}

func (m *severing) Step(ctx *core.StepContext, inbox []core.Envelope[echoMsg]) ([]core.Envelope[echoMsg], bool) {
	out, done := m.Machine.Step(ctx, inbox)
	if ctx.Superstep == m.at {
		m.kill()
	}
	return out, done
}

func (m *severing) SnapshotState(dst []byte) ([]byte, error) {
	return m.Machine.(core.Snapshotter).SnapshotState(dst)
}

func (m *severing) RestoreState(src []byte) error {
	return m.Machine.(core.Snapshotter).RestoreState(src)
}

func ringConfig(seed uint64, ck core.CheckpointPolicy) core.Config {
	return core.Config{K: ringK, Bandwidth: 1, Seed: seed, Checkpoint: ck}
}

func runRing(on site[echoMsg]) ([]int64, *core.Stats, error) {
	out, stats, _, err := retry(
		func(id core.MachineID) (Machine[echoMsg, int64], error) { return &ringMachine{self: id}, nil },
		func(locals []int64) []int64 { return locals }, on)
	return out, stats, err
}

// TestRetryLoop pins the one recovery loop every all-k runner passes
// through: what it counts, where it stops, that cancellation is final,
// and which cut a retry resumes from.
func TestRetryLoop(t *testing.T) {
	golden, goldenStats, err := runRing((&chaosSite{cfg: ringConfig(13, core.CheckpointPolicy{})}).site())
	if err != nil {
		t.Fatal(err)
	}
	same := func(t *testing.T, out []int64, stats *core.Stats) {
		t.Helper()
		if !reflect.DeepEqual(out, golden) {
			t.Errorf("recovered output %v, unkilled %v", out, golden)
		}
		if stats.Rounds != goldenStats.Rounds || stats.Supersteps != goldenStats.Supersteps ||
			stats.Words != goldenStats.Words || !reflect.DeepEqual(stats.PerSuperstep, goldenStats.PerSuperstep) {
			t.Errorf("recovered Stats diverge from the unkilled run's")
		}
	}
	machineLoss := func(t *testing.T, err error) {
		t.Helper()
		var me *transport.MachineError
		if !errors.As(err, &me) {
			t.Fatalf("err %v, want the killed attempt's *transport.MachineError", err)
		}
	}

	t.Run("count", func(t *testing.T) {
		cs := &chaosSite{cfg: ringConfig(13, core.CheckpointPolicy{Every: 2}), kills: 2, killAt: 3}
		out, stats, err := runRing(cs.site())
		if err != nil {
			t.Fatal(err)
		}
		same(t, out, stats)
		if stats.Recoveries != 2 || len(cs.attempts) != 3 {
			t.Errorf("Recoveries = %d over %d attempts, want 2 over 3", stats.Recoveries, len(cs.attempts))
		}
	})

	t.Run("bound", func(t *testing.T) {
		cs := &chaosSite{cfg: ringConfig(13, core.CheckpointPolicy{Every: 2}), kills: 1 << 30, killAt: 3}
		_, _, err := runRing(cs.site())
		machineLoss(t, err)
		if len(cs.attempts) != core.DefaultMaxRecoveries+1 {
			t.Errorf("%d attempts, want the first plus core.DefaultMaxRecoveries=%d retries", len(cs.attempts), core.DefaultMaxRecoveries)
		}
	})

	t.Run("unarmed", func(t *testing.T) {
		cs := &chaosSite{cfg: ringConfig(13, core.CheckpointPolicy{}), kills: 1, killAt: 3}
		_, _, err := runRing(cs.site())
		machineLoss(t, err)
		if len(cs.attempts) != 1 {
			t.Errorf("a run without checkpoints was attempted %d times, want 1", len(cs.attempts))
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := ringConfig(13, core.CheckpointPolicy{Every: 2})
		cfg.Context = ctx
		// The run is canceled after its attempt failed with a machine
		// loss: the loss alone would be retried, the cancellation wins.
		cs := &chaosSite{cfg: cfg, kills: 1, killAt: 3, after: cancel}
		_, _, err := runRing(cs.site())
		machineLoss(t, err)
		if len(cs.attempts) != 1 {
			t.Errorf("a canceled run was attempted %d times, want 1", len(cs.attempts))
		}
	})

	t.Run("resume", func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			prior  uint64 // seed, and Run, of an earlier run into the sink
			killAt int
			want   []int // the cut each attempt started from
		}{
			// Killed after the cut of superstep 1 was stored: resume it.
			{"after-a-cut", 99, 3, []int{-1, 1}},
			// Killed before any cut: start over, ignoring the other run's
			// cuts the sink holds.
			{"before-a-cut", 99, 0, []int{-1, -1}},
			// A launch whose sink holds its own run's cut starts from it.
			{"resuming-launch", 13, 3, []int{5}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				sink := core.NewMemorySink(0)
				// Resuming one of seed 99's cuts would land on its output.
				prior := ringConfig(tc.prior, core.CheckpointPolicy{Every: 2, Sink: sink, Run: tc.prior})
				if _, _, err := runRing((&chaosSite{cfg: prior}).site()); err != nil {
					t.Fatal(err)
				}
				ck := core.CheckpointPolicy{Every: 2, Sink: sink, Run: 13}
				cs := &chaosSite{cfg: ringConfig(13, ck), kills: 1, killAt: tc.killAt}
				out, stats, err := runRing(cs.site())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cs.attempts, tc.want) {
					t.Errorf("attempts started from cuts %v, want %v", cs.attempts, tc.want)
				}
				same(t, out, stats)
			})
		}
	})
}

// TestBuildFailsAtLowestID: the k machines are built at once, yet a
// failed build reports what a build in ID order would have stopped at —
// the error of the lowest failing machine, on every run, or its panic,
// re-raised on the caller — and no cluster is started.
func TestBuildFailsAtLowestID(t *testing.T) {
	const k = 8
	started := 0
	on := site[echoMsg]{cfg: core.Config{K: k, Bandwidth: 1},
		run: func(core.Config, func(core.MachineID) core.Machine[echoMsg]) (*core.Stats, transport.WireStats, error) {
			started++
			return &core.Stats{}, transport.WireStats{}, nil
		}}
	merge := func(locals []int64) []int64 { return locals }
	for i := 0; i < 50; i++ {
		_, _, _, err := retry(func(id core.MachineID) (Machine[echoMsg, int64], error) {
			switch id {
			case 2:
				time.Sleep(time.Millisecond) // so machine 5 fails first
				return nil, fmt.Errorf("machine %d refused", id)
			case 5:
				return nil, fmt.Errorf("machine %d refused", id)
			}
			return &ringMachine{self: id}, nil
		}, merge, on)
		if err == nil || err.Error() != "machine 2 refused" {
			t.Fatalf("run %d: err = %v, want machine 2's", i, err)
		}
	}

	value := &struct{ name string }{"factory panic"}
	got := func() (p any) {
		defer func() { p = recover() }()
		retry(func(id core.MachineID) (Machine[echoMsg, int64], error) {
			if id == 3 {
				panic(value)
			}
			return &ringMachine{self: id}, nil
		}, merge, on)
		return nil
	}()
	if got != value {
		t.Errorf("recovered %v on the caller, want machine 3's panic %v", got, value)
	}
	if started != 0 {
		t.Errorf("%d clusters started after a failed build, want 0", started)
	}
}

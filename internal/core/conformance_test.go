package core_test

// One conformance table for core.Drive: the same misbehaving machines
// are pushed through it over both links — the in-process rendezvous
// (Cluster.Run) and the socket link (node.RunJobLocal on a LocalMesh of
// its own) — and must fail the same way: the same error class and
// attribution, the same partial Stats on the coordinator, nothing left
// running.

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/wire"
)

type cMsg struct{ X int64 }

type cCodec struct{}

func (cCodec) Append(dst []byte, m cMsg) ([]byte, error) { return wire.AppendVarint(dst, m.X), nil }
func (cCodec) Decode(src []byte) (cMsg, int, error) {
	c := wire.Cursor{Src: src}
	m := cMsg{X: c.Varint()}
	return m, c.Off, c.Err
}

type stepFunc = func(ctx *core.StepContext, inbox []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool)

// ring is the well-behaved baseline every row misbehaves from: one word
// to the next machine, every superstep, never done.
func ring(ctx *core.StepContext) []core.Envelope[cMsg] {
	return []core.Envelope[cMsg]{{To: core.MachineID((int(ctx.Self) + 1) % ctx.K), Words: 1}}
}

// misbehaving returns the Step of every machine: bad runs instead of the
// ring on machine `on` in superstep `at`.
func misbehaving(on core.MachineID, at int, bad stepFunc) stepFunc {
	return func(ctx *core.StepContext, inbox []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
		if ctx.Self == on && ctx.Superstep == at {
			return bad(ctx, inbox)
		}
		return ring(ctx), false
	}
}

const (
	cK       = 4
	cTimeout = 150 * time.Millisecond
)

// severFunc kills a machine through its link's fabric: Cluster.Sever in
// process, LocalMesh.Sever over sockets.
type severFunc = func(i int) error

type conformanceRow struct {
	name string
	step func(t *testing.T, cancel context.CancelFunc, sever severFunc) stepFunc
	// preCancel cancels the run context before the run starts.
	preCancel bool
	timeout   time.Duration
	// is lists the errors.Is targets of which at least one must match;
	// says the substrings the message must carry (who, when, what).
	is   []error
	says []string
	// blames, when set, is the *transport.MachineError the run must
	// fail with: who and when.
	blames *transport.MachineError
	// supersteps is what the coordinator's partial Stats must account.
	supersteps int
}

var conformance = []conformanceRow{
	{name: "panic in Step", supersteps: 2,
		says: []string{"machine 1", "panicked in superstep 2", "intentional test panic"},
		step: func(*testing.T, context.CancelFunc, severFunc) stepFunc {
			return misbehaving(1, 2, func(*core.StepContext, []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				panic("intentional test panic")
			})
		}},
	{name: "invalid destination", supersteps: 1,
		says: []string{"machine 2", "invalid machine -1"},
		step: func(*testing.T, context.CancelFunc, severFunc) stepFunc {
			return misbehaving(2, 1, func(*core.StepContext, []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				return []core.Envelope[cMsg]{{To: -1, Words: 1}}, true
			})
		}},
	{name: "destination out of range", supersteps: 0,
		says: []string{"machine 0", "invalid machine 9"},
		step: func(*testing.T, context.CancelFunc, severFunc) stepFunc {
			return misbehaving(0, 0, func(*core.StepContext, []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				return []core.Envelope[cMsg]{{To: 9, Words: 1}}, true
			})
		}},
	{name: "negative Words", supersteps: 1,
		says: []string{"machine 3", "negative-size"},
		step: func(*testing.T, context.CancelFunc, severFunc) stepFunc {
			return misbehaving(3, 1, func(*core.StepContext, []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				return []core.Envelope[cMsg]{{To: 1, Words: -3}}, true
			})
		}},
	{name: "rest after emit to the same peer", supersteps: 2,
		says: []string{"machine 1", "machine 2", "after emitting a batch to it in superstep 2"},
		step: func(t *testing.T, _ context.CancelFunc, _ severFunc) stepFunc {
			return misbehaving(1, 2, func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				batch := []core.Envelope[cMsg]{{To: 2, Words: 1}}
				if !core.EmitBatch(ctx, 2, batch) {
					t.Error("the driver did not take an eager batch")
				}
				return []core.Envelope[cMsg]{{To: 2, Words: 1}}, false
			})
		}},
	{name: "never terminating", supersteps: 7, is: []error{core.ErrMaxSupersteps},
		step: func(*testing.T, context.CancelFunc, severFunc) stepFunc {
			return func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				return ring(ctx), false
			}
		}},
	{name: "pre-cancelled context", supersteps: 0, preCancel: true, is: []error{context.Canceled},
		step: func(t *testing.T, _ context.CancelFunc, _ severFunc) stepFunc {
			return func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				t.Error("a machine stepped under a pre-cancelled context")
				return nil, true
			}
		}},
	{name: "cancel mid-run", supersteps: 3, is: []error{context.Canceled},
		step: func(_ *testing.T, cancel context.CancelFunc, _ severFunc) stepFunc {
			return misbehaving(0, 3, func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				cancel()
				return ring(ctx), false
			})
		}},
	// The wire is live while machines compute, so the timeout covers the
	// whole superstep: the loopback notices at the exchange, the sockets
	// in the peers' bounded reads — a deadline error either way, and the
	// slow superstep is never delivered, so never charged.
	{name: "Step outlasting SuperstepTimeout", supersteps: 2, timeout: cTimeout,
		is: []error{context.DeadlineExceeded, os.ErrDeadlineExceeded},
		step: func(*testing.T, context.CancelFunc, severFunc) stepFunc {
			return misbehaving(1, 2, func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				time.Sleep(4 * cTimeout)
				return ring(ctx), false
			})
		}},
	// A fault on either link is a machine's own Step severing itself:
	// its peers learn of it in the superstep it died in, which is never
	// delivered.
	{name: "machine severs itself", supersteps: 2,
		blames: &transport.MachineError{Machine: 2, Superstep: 2},
		step: func(t *testing.T, _ context.CancelFunc, sever severFunc) stepFunc {
			return misbehaving(2, 2, func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				if err := sever(2); err != nil {
					t.Error(err)
				}
				return ring(ctx), false
			})
		}},
}

// links runs the k machines one cfg describes over each link, and
// returns the frames and bytes it shipped (none in process); step is
// handed the link's sever.
var links = map[string]func(cfg core.Config, step func(severFunc) stepFunc) (*core.Stats, transport.WireStats, error){
	"in-process": func(cfg core.Config, step func(severFunc) stepFunc) (*core.Stats, transport.WireStats, error) {
		var c *core.Cluster[cMsg]
		sever := func(i int) error { return c.Sever(i) }
		c = core.NewCluster(cfg, func(core.MachineID) core.Machine[cMsg] { return core.MachineFunc[cMsg](step(sever)) })
		stats, err := c.Run()
		return stats, transport.WireStats{}, err
	},
	"sockets": func(cfg core.Config, step func(severFunc) stepFunc) (*core.Stats, transport.WireStats, error) {
		lm, err := node.NewLocalMesh(cfg.K)
		if err != nil {
			return nil, transport.WireStats{}, err
		}
		defer lm.Close()
		return node.RunJobLocal(lm, cfg, 0, cCodec{}, func(core.MachineID) core.Machine[cMsg] { return core.MachineFunc[cMsg](step(lm.Sever)) })
	},
}

func TestDriveConformanceOverBothLinks(t *testing.T) {
	for _, row := range conformance {
		t.Run(row.name, func(t *testing.T) {
			partial := map[string]*core.Stats{}
			for link, drive := range links {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				if row.preCancel {
					cancel()
				}
				cfg := core.Config{K: cK, Bandwidth: 1, Seed: 1, MaxSupersteps: 7, Context: ctx, SuperstepTimeout: row.timeout}
				stats, _, err := drive(cfg, func(sever severFunc) stepFunc { return row.step(t, cancel, sever) })
				cancel()
				if err == nil {
					t.Fatalf("%s: the run succeeded", link)
				}
				matched := len(row.is) == 0
				for _, target := range row.is {
					matched = matched || errors.Is(err, target)
				}
				if !matched {
					t.Errorf("%s: error %v is none of %v", link, err, row.is)
				}
				for _, want := range row.says {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s: error %q does not say %q", link, err, want)
					}
				}
				var me *transport.MachineError
				if errors.As(err, &me) && me.Superstep != row.supersteps {
					t.Errorf("%s: failure attributed to superstep %d, want %d", link, me.Superstep, row.supersteps)
				}
				if want := row.blames; want != nil && (me == nil || me.Machine != want.Machine || me.Superstep != want.Superstep) {
					t.Errorf("%s: error %v, want a *transport.MachineError blaming machine %d in superstep %d", link, err, want.Machine, want.Superstep)
				}
				if stats == nil || stats.Supersteps != row.supersteps {
					t.Fatalf("%s: partial stats %+v, want %d supersteps accounted", link, stats, row.supersteps)
				}
				if stats.MaxRecvWords != slices.Max(stats.RecvWords) || (row.supersteps > 0 && stats.MaxRecvWords == 0) {
					t.Errorf("%s: finalize did not run on the error path: %+v", link, stats)
				}
				partial[link] = stats
				testutil.NoLeakedGoroutines(t, base)
			}
			if !reflect.DeepEqual(partial["in-process"], partial["sockets"]) {
				t.Errorf("partial Stats differ between the links:\n in-process %+v\n sockets    %+v", partial["in-process"], partial["sockets"])
			}
		})
	}
}

// phaseRecorder notes which machines recorded which phases.
type phaseRecorder struct {
	mu   sync.Mutex
	seen map[obs.Phase]map[int32]bool
}

func (r *phaseRecorder) Record(s obs.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[s.Phase] == nil {
		r.seen[s.Phase] = map[int32]bool{}
	}
	r.seen[s.Phase][s.Machine] = true
}

// TestOneConfigOverBothLinks is the happy path of the table above: one
// core.Config — a seed the machines draw their traffic from, dropped
// per-superstep Stats, a recorder — means the same on both links.
func TestOneConfigOverBothLinks(t *testing.T) {
	rec := &phaseRecorder{}
	cfg := core.Config{K: cK, Bandwidth: 2, Seed: 99, DropPerSuperstep: true, Recorder: rec}
	step := func(ctx *core.StepContext, _ []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
		if ctx.Superstep == 5 {
			return nil, true
		}
		out := ring(ctx)
		out[0].Words = 1 + int32(ctx.RNG.Uint64()%4)
		return out, false
	}
	got := map[string]*core.Stats{}
	for link, drive := range links {
		rec.seen = map[obs.Phase]map[int32]bool{}
		stats, _, err := drive(cfg, func(severFunc) stepFunc { return step })
		if err != nil {
			t.Fatalf("%s: %v", link, err)
		}
		if stats.PerSuperstep != nil {
			t.Errorf("%s: DropPerSuperstep kept %d per-superstep rows", link, len(stats.PerSuperstep))
		}
		// Compute and barrier spans are per machine on both links; the
		// in-process exchange is one cluster-level span (machine -1).
		for _, phase := range []obs.Phase{obs.PhaseCompute, obs.PhaseBarrier} {
			for m := int32(0); m < cK; m++ {
				if !rec.seen[phase][m] {
					t.Errorf("%s: no %v span from machine %d", link, phase, m)
				}
			}
		}
		if len(rec.seen[obs.PhaseExchange]) == 0 {
			t.Errorf("%s: no exchange span", link)
		}
		got[link] = stats
	}
	if got["in-process"].Supersteps != 5 || !reflect.DeepEqual(got["in-process"], got["sockets"]) {
		t.Errorf("Stats differ between the links:\n in-process %+v\n sockets    %+v", got["in-process"], got["sockets"])
	}
}

// TestEmittedAndReturnedShipAlikeOverBothLinks is
// TestEmittedAndRestAccountIdentically on both links: a run whose
// machines hand every peer's batch to EmitBatch and one whose machines
// return everything must give every machine the same inboxes and the
// run the same Stats, and over sockets ship the same frames and bytes.
func TestEmittedAndReturnedShipAlikeOverBothLinks(t *testing.T) {
	const supersteps = 6
	type outcome struct {
		stats *core.Stats
		wire  transport.WireStats
		logs  [cK][][]core.Envelope[cMsg]
	}
	for link, drive := range links {
		run := func(emit bool) outcome {
			var o outcome
			var mu sync.Mutex
			step := func(ctx *core.StepContext, inbox []core.Envelope[cMsg]) ([]core.Envelope[cMsg], bool) {
				mu.Lock()
				o.logs[ctx.Self] = append(o.logs[ctx.Self], slices.Clone(inbox))
				mu.Unlock()
				if ctx.Superstep >= supersteps {
					return nil, true
				}
				var out []core.Envelope[cMsg]
				for j := 0; j < ctx.K; j++ {
					to := core.MachineID(j)
					batch := make([]core.Envelope[cMsg], 1+(ctx.Superstep+int(ctx.Self)+j)%3)
					for n := range batch {
						batch[n] = core.Envelope[cMsg]{To: to, Words: int32(1 + n),
							Msg: cMsg{X: int64(1000*ctx.Superstep + 100*int(ctx.Self) + 10*j + n)}}
					}
					if emit && to != ctx.Self {
						if !core.EmitBatch(ctx, to, batch) {
							panic("the driver did not take an eager batch")
						}
						continue
					}
					out = append(out, batch...)
				}
				return out, false
			}
			var err error
			o.stats, o.wire, err = drive(core.Config{K: cK, Bandwidth: 2, Seed: 7}, func(severFunc) stepFunc { return step })
			if err != nil {
				t.Fatalf("%s (emit %v): %v", link, emit, err)
			}
			return o
		}
		returned, emitted := run(false), run(true)
		if !reflect.DeepEqual(returned.stats, emitted.stats) {
			t.Errorf("%s: Stats differ:\n returned %+v\n emitted  %+v", link, returned.stats, emitted.stats)
		}
		if returned.wire != emitted.wire {
			t.Errorf("%s: WireStats differ: returned %+v, emitted %+v", link, returned.wire, emitted.wire)
		}
		if link == "sockets" && returned.wire.FramesSent == 0 {
			t.Errorf("%s: no frames shipped", link)
		}
		if !reflect.DeepEqual(returned.logs, emitted.logs) {
			t.Errorf("%s: inboxes differ between the returning and the emitting run", link)
		}
		if got := len(returned.logs[0]); got != supersteps+1 {
			t.Errorf("%s: machine 0 stepped %d times, want %d", link, got, supersteps+1)
		}
	}
}

package core

import (
	"reflect"
	"testing"

	"kmachine/internal/obs"
)

// Allocation-regression fence for the persistent-worker engine: a
// steady-state superstep — workers stepping, one batch emitted and one
// envelope left as rest per machine, emitter reset/record, the sparse
// link accounting fold, the rendezvous with count-then-place inbox
// assembly in the loopback — must not allocate. The test runs a k=8
// cluster for many supersteps with a fixed traffic pattern and asserts
// the whole run stays under a budget that only covers one-time setup
// (engine state, emitters, transport buffers, machine closures,
// PerSuperstep growth); if a per-superstep allocation sneaks back into
// the hot path it blows the budget immediately (supersteps × k ≈ 1600
// extra allocations).

type allocMsg struct{ payload [2]int64 }

// ringMachine sends one envelope to each ring neighbour per superstep:
// the next neighbour's as an emitted batch when emit is set,
// everything else in the returned outs.
func ringMachine(supersteps int, emit bool) Machine[allocMsg] {
	next := make([]Envelope[allocMsg], 0, 1)
	out := make([]Envelope[allocMsg], 0, 2)
	return MachineFunc[allocMsg](func(ctx *StepContext, inbox []Envelope[allocMsg]) ([]Envelope[allocMsg], bool) {
		if ctx.Superstep >= supersteps {
			return nil, true
		}
		nj := MachineID((int(ctx.Self) + 1) % ctx.K)
		pj := MachineID((int(ctx.Self) + ctx.K - 1) % ctx.K)
		next = append(next[:0], Envelope[allocMsg]{To: nj, Words: 3})
		out = append(out[:0], Envelope[allocMsg]{To: pj, Words: 2})
		if emit {
			if !EmitBatch(ctx, nj, next) {
				panic("engine did not take an eager batch")
			}
			return out, false
		}
		return append(out, next...), false
	})
}

func runSteadyCluster(tb testing.TB, supersteps int, drop bool, rec obs.Recorder) {
	tb.Helper()
	const k = 8
	c := NewCluster(Config{K: k, Bandwidth: 2, Seed: 7, DropPerSuperstep: drop, Recorder: rec},
		func(MachineID) Machine[allocMsg] { return ringMachine(supersteps, true) })
	st, err := c.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if st.Supersteps != supersteps {
		tb.Fatalf("ran %d supersteps, want %d", st.Supersteps, supersteps)
	}
}

func TestSteadyStateSuperstepAllocBudget(t *testing.T) {
	const supersteps = 200
	// One run = setup + 200 steady supersteps. The recorded footprint of
	// the engine is ~140 allocations per run (cluster, engine state,
	// emitters, goroutine closures, transport buffers, machine buffers);
	// 170 leaves headroom for toolchain drift while still failing hard
	// if even one allocation per superstep (200 extra) returns.
	const budget = 170.0
	got := testing.AllocsPerRun(3, func() {
		runSteadyCluster(t, supersteps, true, nil)
	})
	if got > budget {
		t.Errorf("steady-state run allocated %.0f times, budget %.0f — a per-superstep allocation crept into the engine hot path", got, budget)
	}

	// With PerSuperstep retention the only extra growth allowed is the
	// stats slice itself (amortised doubling).
	withStats := testing.AllocsPerRun(3, func() {
		runSteadyCluster(t, supersteps, false, nil)
	})
	if withStats > budget+16 {
		t.Errorf("PerSuperstep retention allocated %.0f times, budget %.0f", withStats, budget+16)
	}
}

// allPeersMachine sends, every superstep before the last, a batch of one
// to three envelopes to every machine, itself included, tagged so that
// an envelope names its superstep, sender, receiver and ordinal. With
// emit set it hands every other peer's batch to EmitBatch (which peers
// alternates by superstep); the rest stay in its returned outs. It logs
// a copy of every inbox.
func allPeersMachine(supersteps int, emit bool, log *[][]Envelope[allocMsg]) Machine[allocMsg] {
	return MachineFunc[allocMsg](func(ctx *StepContext, inbox []Envelope[allocMsg]) ([]Envelope[allocMsg], bool) {
		*log = append(*log, append([]Envelope[allocMsg](nil), inbox...))
		if ctx.Superstep >= supersteps {
			return nil, true
		}
		var out []Envelope[allocMsg]
		for j := 0; j < ctx.K; j++ {
			batch := allPeersBatch(ctx.Superstep, int(ctx.Self), j)
			if emit && j != int(ctx.Self) && (j+ctx.Superstep)%2 == 1 {
				if !EmitBatch(ctx, MachineID(j), batch) {
					panic("the driver did not take an eager batch")
				}
				continue
			}
			out = append(out, batch...)
		}
		return out, false
	})
}

func allPeersBatch(step, from, to int) []Envelope[allocMsg] {
	batch := make([]Envelope[allocMsg], 1+(step+from+to)%3)
	for n := range batch {
		batch[n] = Envelope[allocMsg]{From: MachineID(from), To: MachineID(to), Words: int32(1 + n),
			Msg: allocMsg{payload: [2]int64{int64(step), int64(n)}}}
	}
	return batch
}

// An envelope is delivered and costs the same whether it was emitted
// or left as rest: every inbox holds what each sender sent to
// it, in sender order with the machine's own envelopes in its place, and
// the accounting folds the emitters' records and the rest loads into one
// link-load matrix, so inboxes and Stats must be identical either way.
func TestEmittedAndRestAccountIdentically(t *testing.T) {
	const k, supersteps = 5, 6
	run := func(emit bool) (*Stats, [][][]Envelope[allocMsg]) {
		logs := make([][][]Envelope[allocMsg], k)
		c := NewCluster(Config{K: k, Bandwidth: 2, Seed: 7},
			func(id MachineID) Machine[allocMsg] { return allPeersMachine(supersteps, emit, &logs[id]) })
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st, logs
	}
	rest, restLogs := run(false)
	emitted, emittedLogs := run(true)
	if !reflect.DeepEqual(rest, emitted) {
		t.Errorf("emitted stats diverge from rest-only:\nrest    %+v\nemitted %+v", rest, emitted)
	}
	for j := 0; j < k; j++ {
		for step := 1; step <= supersteps; step++ {
			var want []Envelope[allocMsg]
			for from := 0; from < k; from++ {
				want = append(want, allPeersBatch(step-1, from, j)...)
			}
			if !reflect.DeepEqual(restLogs[j][step], want) {
				t.Errorf("rest-only: machine %d inbox of superstep %d:\n got  %+v\n want %+v", j, step, restLogs[j][step], want)
			}
			if !reflect.DeepEqual(emittedLogs[j][step], want) {
				t.Errorf("emitted: machine %d inbox of superstep %d:\n got  %+v\n want %+v", j, step, emittedLogs[j][step], want)
			}
		}
	}
}

// A live obs.Trace recorder must keep the hot path allocation-free too:
// Record writes into the trace's preallocated ring, so the only extra
// allocations allowed with the recorder ON are the engine's span
// bookkeeping — i.e. none. The trace is built once outside the measured
// runs so its ring doesn't count against the budget.
func TestSteadyStateSuperstepAllocBudgetWithRecorder(t *testing.T) {
	const supersteps = 200
	const budget = 170.0
	tr := obs.NewTrace(4096, 8)
	got := testing.AllocsPerRun(3, func() {
		runSteadyCluster(t, supersteps, true, tr)
	})
	if got > budget {
		t.Errorf("instrumented steady-state run allocated %.0f times, budget %.0f — recording spans must not allocate", got, budget)
	}
	if c := tr.Counters(); c.Total == 0 {
		t.Fatal("recorder saw no spans — the instrumented path did not run")
	}
}

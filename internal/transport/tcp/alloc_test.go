package tcp

// Allocation-regression fence for the persistent exchange pipeline, in
// the spirit of internal/core/alloc_test.go: once the mesh is built and
// its buffers have grown to the working set, a steady-state superstep —
// release the parked readers, write one emitted batch and the rest per
// machine at the finish on the calling goroutine,
// encode/ship/receive/decode k(k-1) batch frames and as many row frames,
// merge the inboxes — must not allocate. The budget covers only the measured loop's incidental noise
// (runtime timer churn from connection deadlines); a per-superstep
// allocation sneaking back into the pipeline blows it immediately
// (supersteps × k × peers ≈ thousands of extra allocations).

import (
	"context"
	"sync"
	"testing"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

func TestSteadyStateExchangeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc fence is timing-free but runs hundreds of socket supersteps")
	}
	const k = 4
	const supersteps = 40
	eps := attachAll(t, k, testCodec{})
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()

	// Fixed ring traffic, reused slices: the caller-side pattern core's
	// driver produces (batches and rest stay caller-owned until the
	// superstep finishes). The next neighbour's envelope is an emitted
	// batch, the previous neighbour's rest. Each endpoint runs the
	// supersteps on its own goroutine, as a socket machine does.
	eager := make([][][]transport.Envelope[testMsg], k)
	rest := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		eager[i] = make([][]transport.Envelope[testMsg], k)
		eager[i][(i+1)%k] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + 1) % k), Words: 3, Msg: testMsg{Tag: int64(i)}}}
		rest[i] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + k - 1) % k), Words: 2, Msg: testMsg{Tag: -int64(i)}}}
	}
	step := 0
	errs := make([]error, k)
	var wg sync.WaitGroup
	machine := func(i int) {
		defer wg.Done()
		ctx := context.Background()
		e := eps[i]
		for s := step; s < step+supersteps; s++ {
			if errs[i] = e.BeginSuperstep(ctx, s); errs[i] != nil {
				return
			}
			if _, _, errs[i] = e.FinishSuperstep(s, eager[i], rest[i], nil); errs[i] != nil {
				return
			}
		}
	}
	run := func() {
		wg.Add(k)
		for i := 0; i < k; i++ {
			go machine(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("machine %d: %v", i, err)
			}
		}
		step += supersteps
	}
	// One warm-up pass outside the measurement grows every recycled
	// buffer to its steady-state capacity (AllocsPerRun's own warm-up
	// call would also do it, but being explicit keeps the budget's
	// meaning obvious).
	run()

	got := testing.AllocsPerRun(3, run)
	// The pipeline itself is allocation-free: frames leave by writev
	// from the connections' own encode buffers and header scratch, and
	// arrive in their own read buffers, all grown by the warm-up. The
	// only recurring cost is runtime-internal (netpoll deadline timers
	// when SetDeadline renews them). Budget one allocation per two
	// supersteps — a real per-superstep, per-peer regression costs >=
	// supersteps × (k-1) ≈ 120.
	budget := float64(supersteps / 2)
	if got > budget {
		t.Errorf("steady-state exchange allocated %.0f times over %d supersteps, budget %.0f — a per-superstep allocation crept into the pipeline", got, supersteps, budget)
	}

	// Same fence with a live obs.Trace recorder: the writes record a
	// frame-write span per frame sent, the readers and the finish
	// frame-read and frame-decode spans per batch received, all into the
	// trace's preallocated ring — so instrumentation must not move the budget.
	// The trace is built once, outside the measured runs.
	trace := obs.NewTrace(4096, k)
	for _, e := range eps {
		e.SetRecorder(trace)
	}
	run() // re-warm with the recorder installed
	instrumented := testing.AllocsPerRun(3, run)
	if instrumented > budget {
		t.Errorf("instrumented exchange allocated %.0f times over %d supersteps, budget %.0f — recording frame spans must not allocate", instrumented, supersteps, budget)
	}
	if c := trace.Counters(); c.FramesSent == 0 || c.FramesRecv == 0 {
		t.Fatalf("recorder saw no frames (sent=%d recv=%d) — the instrumented path did not run", c.FramesSent, c.FramesRecv)
	}
}

package tcp

// Allocation-regression fence for the persistent exchange pipeline, in
// the spirit of internal/core/alloc_test.go: once the mesh is built and
// its buffers have grown to the working set, a steady-state superstep —
// release the parked readers, hand one batch per machine to its writer
// mid-superstep and the rest at the finish, encode/ship/receive/decode
// k(k-1) batch frames and as many row frames, merge the inboxes —
// must not allocate. The budget covers only the measured loop's incidental noise
// (runtime timer churn from connection deadlines); a per-superstep
// allocation sneaking back into the pipeline blows it immediately
// (supersteps × k × peers ≈ thousands of extra allocations).

import (
	"context"
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
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Fixed ring traffic, reused slices: the caller-side pattern core's
	// engine produces (batches and rest stay caller-owned per the
	// transport contract). The next neighbour's envelope is emitted
	// eagerly, the previous neighbour's left to Finish.
	eager := make([][]transport.Envelope[testMsg], k)
	rest := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		eager[i] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + 1) % k), Words: 3, Msg: testMsg{Tag: int64(i)}}}
		rest[i] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + k - 1) % k), Words: 2, Msg: testMsg{Tag: -int64(i)}}}
	}
	step := 0
	ctx := context.Background()
	run := func() {
		for s := 0; s < supersteps; s++ {
			if err := tr.Begin(ctx, step); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if err := tr.SendBatch(transport.MachineID(i), transport.MachineID((i+1)%k), eager[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.Finish(ctx, step, rest); err != nil {
				t.Fatal(err)
			}
			step++
		}
	}
	// One warm-up pass outside the measurement grows every recycled
	// buffer to its steady-state capacity (AllocsPerRun's own warm-up
	// call would also do it, but being explicit keeps the budget's
	// meaning obvious).
	run()

	got := testing.AllocsPerRun(3, run)
	// The pipeline itself is allocation-free; the only recurring cost is
	// runtime-internal (netpoll deadline timers when SetDeadline renews
	// them, occasional bufio growth on the first pass). Budget one
	// allocation per two supersteps — a real per-superstep, per-peer
	// regression costs >= supersteps × (k-1) ≈ 120.
	budget := float64(supersteps / 2)
	if got > budget {
		t.Errorf("steady-state exchange allocated %.0f times over %d supersteps, budget %.0f — a per-superstep allocation crept into the pipeline", got, supersteps, budget)
	}

	// Same fence with a live obs.Trace recorder: the pipeline workers
	// record a frame-write span per batch sent and frame-read +
	// frame-decode spans per batch received, all into the trace's
	// preallocated ring — so instrumentation must not move the budget.
	// The trace is built once, outside the measured runs.
	trace := obs.NewTrace(4096, k)
	for _, e := range tr.eps {
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

package kmachine_test

// Integration suite for the observability plane: a live trace recorder
// attached to real runs must (a) not perturb the model-level Stats at
// all — instrumentation reads the computation, it is not part of it —
// (b) produce a timeline whose spans explain essentially all of the
// run's wall-clock, and (c) have the same *shape* on every substrate
// (one compute and one barrier span per machine per superstep), because
// the phases are properties of the superstep protocol, not of the
// transport. The TCP cases run the full socket pipeline with the
// recorder hot, which is this suite's race-detector coverage for the
// concurrent Record path (CI runs the package under -race).

import (
	"bytes"
	"encoding/json"
	"testing"

	"kmachine"
	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

// tracedProblem is sized so that compute, not the fixed per-superstep
// scheduling gaps, dominates the timeline: at n=200 the coverage bar
// below sat inside run-to-run noise (and under it with -race).
var tracedProblem = algo.Problem{N: 800, EdgeP: 0.0125, K: 8, Seed: 41}

// tracedRun executes pagerank at k=8 on the given substrate with a
// fresh trace attached and returns the outcome plus the trace. The ring
// holds the whole run: the socket link records ~300 spans a superstep
// (k compute, barrier and exchange spans, a write and a read per frame
// and a decode per batch) over the ~440 supersteps, and a wrapped ring would
// lose the early supersteps the shape checks count.
func tracedRun(t *testing.T, kind transport.Kind) (*algo.Outcome, *obs.Trace) {
	t.Helper()
	entry, ok := algo.Lookup("pagerank")
	if !ok {
		t.Fatal("pagerank not registered")
	}
	tr := obs.NewTrace(1<<18, 8)
	prob := tracedProblem
	prob.Recorder = tr
	out, err := entry.Run(prob, kind)
	if err != nil {
		t.Fatalf("pagerank on %s: %v", kind, err)
	}
	if d := tr.Counters().Dropped; d != 0 {
		t.Fatalf("pagerank on %s: the trace dropped %d spans", kind, d)
	}
	return out, tr
}

// TestTracedRunStatsInvariant: attaching a recorder must not change a
// single model-level number — same Rounds/Words/Messages/hash as the
// uninstrumented run, on loopback and over sockets.
func TestTracedRunStatsInvariant(t *testing.T) {
	entry, _ := algo.Lookup("pagerank")
	for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
		plain, err := entry.Run(tracedProblem, kind)
		if err != nil {
			t.Fatalf("plain run on %s: %v", kind, err)
		}
		traced, tr := tracedRun(t, kind)
		if traced.Hash != plain.Hash {
			t.Errorf("%s: output hash changed under tracing: %016x vs %016x", kind, traced.Hash, plain.Hash)
		}
		sameStats(t, string(kind)+" traced-vs-plain", traced.Stats, plain.Stats)
		if c := tr.Counters(); c.Total == 0 {
			t.Errorf("%s: trace recorded no spans", kind)
		}
	}
}

// TestTracedRunCoverageAndShape: the timeline must explain the run
// (coverage close to 1) and carry the protocol's span shape — k compute
// and k barrier spans per superstep on every substrate.
func TestTracedRunCoverageAndShape(t *testing.T) {
	for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
		out, tr := tracedRun(t, kind)
		spans := tr.Spans()
		sum := obs.Summarize(spans)
		// The trace may see one superstep more than Stats counts: the
		// final round, where every machine returns halt, still runs a
		// compute and barrier phase but performs no accounted exchange.
		if sum.Supersteps != out.Stats.Supersteps && sum.Supersteps != out.Stats.Supersteps+1 {
			t.Errorf("%s: trace saw %d supersteps, stats say %d", kind, sum.Supersteps, out.Stats.Supersteps)
		}
		// The acceptance bar is 0.95 on a socket run; loopback is
		// denser still. Leave slack for scheduler noise on tiny runs.
		if sum.Coverage < 0.90 {
			t.Errorf("%s: spans cover only %.1f%% of wall-clock", kind, 100*sum.Coverage)
		}
		const k = 8
		wantPerPhase := k * sum.Supersteps
		if sum.Compute.Count != wantPerPhase {
			t.Errorf("%s: %d compute spans, want k×supersteps = %d", kind, sum.Compute.Count, wantPerPhase)
		}
		if sum.Barrier.Count != wantPerPhase {
			t.Errorf("%s: %d barrier spans, want k×supersteps = %d", kind, sum.Barrier.Count, wantPerPhase)
		}
		if sum.Exchange.Count == 0 {
			t.Errorf("%s: no exchange spans", kind)
		}
		if kind == transport.TCP {
			// The socket pipeline's frame spans carry the wire detail:
			// bytes must be attributed to real peers, never to self.
			c := tr.Counters()
			if c.FramesSent == 0 || c.BytesSent == 0 {
				t.Errorf("tcp: no frame telemetry (frames=%d bytes=%d)", c.FramesSent, c.BytesSent)
			}
			for peer, pc := range c.PerPeer {
				_ = peer
				if pc.FramesSent < 0 || pc.FramesRecv < 0 {
					t.Errorf("tcp: negative per-peer counters: %+v", pc)
				}
			}
		}
	}
}

// TestPublicAPITraceRoundTrip drives the whole observability surface
// through the public package: run with a Trace via RunConfig, export
// Chrome JSON, parse it back, and cross-check against Summarize.
func TestPublicAPITraceRoundTrip(t *testing.T) {
	tr := kmachine.NewTrace(0, 4)
	g := kmachine.Gnp(120, 0.05, 11)
	p := kmachine.RandomVertexPartition(g, 4, 11)
	_, err := kmachine.PageRank(p, kmachine.PageRankConfig{
		RunConfig: kmachine.RunConfig{Recorder: tr},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded through the public RunConfig knob")
	}
	var buf bytes.Buffer
	if err := kmachine.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range events {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != len(spans) {
		t.Errorf("%d complete events for %d spans", complete, len(spans))
	}
	if sum := kmachine.Summarize(spans); sum.Supersteps == 0 || sum.Coverage <= 0 {
		t.Errorf("degenerate summary: %+v", sum)
	}
}

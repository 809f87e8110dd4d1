package routing

import (
	"runtime"
	"testing"

	"kmachine/internal/transport"
)

// TestRandomRouteBytesPerProbe is the allocation fence of the Lemma 13
// routing machine, in bytes allocated per probe routed. A probe's
// envelope is 16 bytes, and on each path it is materialised about
// twice: once in its sender's destination bucket and once in its
// receiver's inbox. The socket row also pays for its run's mesh — the
// connections and their buffers — and for the encode and frame buffers
// of ~2 wire bytes a probe. The budgets sit ~12 % above what the two
// paths allocate today, under -race for the socket row, and below what
// one more copy of the outbox costs (16 B/probe flat, ~32 B/probe
// append-grown), so a flat outbox split by destination again below the
// machine, or write buffers back on the connections, fails here. Before
// the machine drew into per-destination buckets and the mesh kept one
// buffered half per connection end, the rows read 32.5 / 133.4
// B/probe; now 33.3 / 46.9 (48.7 under -race).
func TestRandomRouteBytesPerProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("routes 400 000 probes twice, once over loopback sockets")
	}
	const k, x = 8, 50000
	perProbe := func(kind transport.Kind) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RandomRouteExperimentOn(kind, k, x, 64, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (k * x)
	}
	inmem := perProbe(transport.InMem)
	tcp := perProbe(transport.TCP)
	for _, row := range []struct {
		layer       string
		got, budget float64
	}{
		{"routing machines + in-process link (randomRouteMachine.Step, core, inmem)", inmem, 37},
		{"routing machines + socket link (mesh, AppendBatchV2, frame buffers, assembleInbox)", tcp, 55},
	} {
		t.Logf("%5.1f B/probe (budget %3.0f)  %s", row.got, row.budget, row.layer)
		if row.got > row.budget {
			t.Errorf("%s allocates %.1f B/probe, budget %.0f — a copy of the outbox or a connection write buffer is back in this layer",
				row.layer, row.got, row.budget)
		}
	}
}

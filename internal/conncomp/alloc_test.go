package conncomp

import (
	"runtime"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

// TestConnCompBytesPerArc is the allocation fence of the connectivity
// path, in bytes allocated per arc of the input (each undirected edge
// is two arcs, one per endpoint's adjacency row). The budgets sit ~12 %
// above what the two paths allocate today — under -race for the socket
// row, where the detector adds ~2 B/arc — and far below what an
// append-grown setup table or link bucket costs, or a copy of the
// arrived payloads out of the inbox, so one that creeps back fails here
// and the failing row names where to look. Before newCCMachine sized
// its tables and buckets from counts and the Steps read their inbox in
// place, the rows read 148 / 241 B/arc (35.8 / 58.1 MB per run); before
// each socket connection end kept only the buffer it uses, 60 / 153
// (14.5 / 36.8 MB); before labels went straight to their home machine,
// with no relay superstep and no routing frame, 60 / 84 (14.5 / 20.3
// MB); before a label went out only when it fell, with no change flags,
// 54 / 67 (12.9 / 16.0 MB); now 49 / 59 (11.6 / 14.2 MB; 61 for the
// socket row under -race).
func TestConnCompBytesPerArc(t *testing.T) {
	if testing.Short() {
		t.Skip("labels a 240 000-arc graph twice, once over loopback sockets")
	}
	const n, k = 20000, 8
	g := gen.Gnp(n, 12.0/n, 1)
	p := partition.NewRVP(g, k, 2)
	arcs := float64(2 * g.M())
	perArc := func(kind transport.Kind) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(n), Seed: 3, Transport: kind}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / arcs
	}
	inmem := perArc(transport.InMem)
	tcp := perArc(transport.TCP)
	for _, row := range []struct {
		layer       string
		got, budget float64
	}{
		{"connectivity machines + link buckets + in-process link (newCCMachine, Step, core, inmem)", inmem, 55},
		{"connectivity machines + link buckets + socket link (AppendBatchV2, frame buffers, rows, assembleInbox)", tcp, 68},
	} {
		t.Logf("%5.1f B/arc (budget %3.0f)  %s", row.got, row.budget, row.layer)
		if row.got > row.budget {
			t.Errorf("%s allocates %.1f B/arc, budget %.0f — a growth chain or a copy of the inbox is back in this layer",
				row.layer, row.got, row.budget)
		}
	}
}

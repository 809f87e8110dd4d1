package dsort

import (
	"runtime"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/transport"
)

// TestBulkBytesPerKey is the bytes-moved fence of the bulk path: a sort
// of n 8-byte keys may allocate only so many bytes per key on each
// path it takes. The three budgets sit ~12 % above what the paths
// allocate today — under -race for the socket row, where the detector
// adds ~10 B/key — and far below what one more materialisation of the
// envelopes costs (40 B/key per inbox or staging copy, 12 B/key per
// frame buffer, tens of B/key per append-growth chain), so a copy that
// creeps back fails here and the failing row names where to look.
// Before the bulk path was cut to one materialisation per layer the
// rows read 35 / 330 / 550 B/key; before the socket link kept one inbox
// and the self bucket went straight into it, 180 / 302 of the last two;
// before the in-process link kept one inbox, 152 / 228; before each
// socket connection end kept only the buffer it uses, 122 / 228; now
// 122 / 149 (159 for the socket row under -race).
func TestBulkBytesPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts 200 000 keys twice, once over loopback sockets")
	}
	const n, k = 200000, 8
	perKey := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	run := func(kind transport.Kind, in *Input) func() {
		return func() {
			if _, err := Run(in, core.Config{K: k, Bandwidth: 8, Seed: 3, Transport: kind}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	var in *Input
	input := perKey(func() { in = RandomInput(n, k, 1, UniformKeys) })
	inmem := perKey(run(transport.InMem, in))
	tcp := perKey(run(transport.TCP, in))
	for _, row := range []struct {
		layer       string
		got, budget float64
	}{
		{"dsort.RandomInput (the key slices)", input, 10},
		{"sort machines + routing buckets + in-process link (newSortMachine, Step, core, inmem)", inmem, 136},
		{"sort machines + routing buckets + socket link (AppendBatchV2, frame buffers, rows, assembleInbox)", tcp, 178},
	} {
		t.Logf("%5.1f B/key (budget %3.0f)  %s", row.got, row.budget, row.layer)
		if row.got > row.budget {
			t.Errorf("%s allocates %.1f B/key, budget %.0f — a staging copy or a growth chain is back in this layer",
				row.layer, row.got, row.budget)
		}
	}
}

package node

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// FuzzControlFrames drives the decoder of the one frame besides its
// batches that the socket link parses off a peer — the row every peer
// ships behind its batch, the superstep's only control data — seeded
// with the rows of a real checkpointed RunLocal and with the bytes of
// the control frames the data plane replaced: the verdicts (kind byte,
// then final Stats or abort text) and the job-begin, job-end and resume
// frames (kind byte, then a uvarint). Whatever the bytes, it returns a
// row or an error; it never panics and never sizes an allocation by a
// count it has not checked against the bytes present. A row that
// decodes re-encodes to a frame that decodes to the same row.
func FuzzControlFrames(f *testing.F) {
	const k = 4
	sink := core.NewMemorySink(0)
	stats, _, err := tryCkCluster(k, core.CheckpointPolicy{Every: 2, Sink: sink})
	if err != nil {
		f.Fatal(err)
	}
	latest, _, _ := sink.Latest()
	row := &core.Row{Words: make([]int64, k)}
	row.Messages, row.Pending = 1, true
	row.Add(1, 1)
	f.Add(appendReport(nil, 3, row), uint64(3))
	row.Done, row.Err = true, "core: machine 0 panicked in superstep 3: boom"
	f.Add(appendReport(nil, 3, row), uint64(3))
	f.Add([]byte{byte(core.VerdictContinue)}, uint64(0))
	f.Add(core.AppendStats([]byte{byte(core.VerdictStop)}, stats), uint64(0))
	f.Add(append([]byte{byte(core.VerdictAbort)}, "node: machine 2 gone"...), uint64(0))
	f.Add([]byte{0xB0, 7}, uint64(7))
	f.Add([]byte{0xB1, 7}, uint64(7))
	f.Add(wire.AppendUvarint([]byte{0xB2}, uint64(latest+1)), uint64(latest+1))
	f.Add([]byte{0xB2, 0}, uint64(0))

	f.Fuzz(func(t *testing.T, frame []byte, want uint64) {
		step := int(want % (1 << 20))
		r := &core.Row{Words: make([]int64, k)}
		if decodeReport(r, frame, step) != nil {
			return
		}
		again := &core.Row{Words: make([]int64, k)}
		if err := decodeReport(again, appendReport(nil, step, r), step); err != nil {
			t.Fatalf("re-encoded row fails to decode: %v", err)
		}
		again.Touched, r.Touched = nil, nil // order of first charge, not content
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("row round trip: %+v, want %+v", again, r)
		}
	})
}

// TestUnsoundRowBlamesItsSender is the endpoint-level counterpart of the
// fuzz target: machine 2 ships a sound batch followed by an unsound row
// to machines 0 and 1, and machine 0's socket link must fail the
// superstep with a *transport.MachineError naming machine 2 — never a
// panic, never a ruling over the bad row, never a goroutine left behind.
func TestUnsoundRowBlamesItsSender(t *testing.T) {
	const k, culprit = 3, 2
	good := &core.Row{Words: make([]int64, k)}
	narrow := &core.Row{Words: make([]int64, k-1)}
	// raw is a superstep-0 row frame with the given counts as written,
	// free of the int64 a core.Row would hold them in.
	raw := func(messages uint64, words ...uint64) []byte {
		b := wire.AppendUvarint([]byte{0, 0}, messages)
		b = wire.AppendUvarint(b, uint64(len(words)))
		for _, w := range words {
			b = wire.AppendUvarint(b, w)
		}
		return b
	}
	for _, c := range []struct {
		name string
		row  []byte
	}{
		{"empty", nil},
		{"wrong superstep", appendReport(nil, 5, good)},
		{"wrong link count", appendReport(nil, 0, narrow)},
		{"truncated", appendReport(nil, 0, good)[:3]},
		{"overflowing words", raw(0, 0, 1<<63, 0)},
		{"overflowing messages", raw(1<<63, 0, 0, 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			eps := loopbackEndpoints(t, k)
			defer func() {
				for _, ep := range eps {
					ep.Close()
				}
				testutil.NoLeakedGoroutines(t, base)
			}()
			ctx := context.Background()
			for i, ep := range eps {
				if err := ep.BeginSuperstep(ctx, 0); err != nil {
					t.Fatalf("machine %d begin: %v", i, err)
				}
			}
			// Machines 1 and 2 only ship; whatever they read back is moot.
			var wg sync.WaitGroup
			for i, row := range [][]byte{1: appendReport(nil, 0, good), culprit: c.row} {
				if i > 0 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						eps[i].FinishSuperstep(0, nil, nil, row)
					}()
				}
			}

			_, _, err := newSocketLink(core.Config{K: k, Bandwidth: 1}, 0, eps[0]).Round(ctx, 0, good, nil, nil)
			var me *transport.MachineError
			if !errors.As(err, &me) || me.Machine != culprit || me.Superstep != 0 {
				t.Fatalf("got %v, want a MachineError naming machine %d in superstep 0", err, culprit)
			}
			wg.Wait()
		})
	}
}

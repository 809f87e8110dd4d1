package node

import (
	"reflect"
	"testing"

	"kmachine/internal/core"
)

// FuzzControlFrames drives the decoders of every control frame the
// socket link reads off a peer — the report, the verdict and the
// pre/post-loop ctrl frames, ctrlResume included — seeded with the
// frames of a real checkpointed RunLocal. Whatever the bytes, each
// returns a value or an error; it never panics and never sizes an
// allocation by a count it has not checked against the bytes present.
// What decodes re-encodes to a frame that decodes to the same value.
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
	f.Add(appendVerdict(nil, core.Verdict{Kind: core.VerdictContinue}), uint64(0))
	f.Add(appendVerdict(nil, core.Verdict{Kind: core.VerdictStop, Stats: stats}), uint64(0))
	f.Add(appendVerdict(nil, core.Verdict{Kind: core.VerdictAbort, Abort: "node: machine 2 gone"}), uint64(0))
	f.Add(encodeCtrl(ctrlJobBegin, 7), uint64(7))
	f.Add(encodeCtrl(ctrlJobEnd, 7), uint64(7))
	f.Add(encodeCtrl(ctrlResume, uint64(latest+1)), uint64(latest+1))
	f.Add(encodeCtrl(ctrlResume, 0), uint64(0))

	f.Fuzz(func(t *testing.T, frame []byte, want uint64) {
		step := int(want % (1 << 20))
		r := &core.Row{Words: make([]int64, k)}
		if decodeReport(r, frame, step) == nil {
			again := &core.Row{Words: make([]int64, k)}
			if err := decodeReport(again, appendReport(nil, step, r), step); err != nil {
				t.Fatalf("re-encoded report fails to decode: %v", err)
			}
			again.Touched, r.Touched = nil, nil // order of first charge, not content
			if !reflect.DeepEqual(again, r) {
				t.Fatalf("report round trip: %+v, want %+v", again, r)
			}
		}
		if v, err := decodeVerdict(frame, k); err == nil {
			again, err := decodeVerdict(appendVerdict(nil, v), k)
			if err != nil || !reflect.DeepEqual(again, v) {
				t.Fatalf("verdict round trip: %+v (err %v), want %+v", again, err, v)
			}
		}
		for _, kind := range []byte{ctrlJobBegin, ctrlJobEnd, ctrlResume} {
			if decodeCtrl(frame, kind, want) == nil && frame[0] != kind {
				t.Fatalf("ctrl frame 0x%02x accepted as 0x%02x", frame[0], kind)
			}
		}
	})
}

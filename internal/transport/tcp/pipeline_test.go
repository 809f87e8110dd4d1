package tcp

// Tests for the persistent exchange pipeline: worker lifecycle (spawned
// once, parked between supersteps, retired on Close) and bytes-on-wire
// accounting.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// TestPipelineWorkersPersistAcrossSupersteps pins the tentpole property
// of the rebuilt exchange path: the worker population is created by
// mesh construction, does NOT grow or churn across supersteps, and
// drains completely on Close. The previous engine spawned ~2k
// goroutines per endpoint per superstep; a regression to that shows up
// here as a goroutine-count delta between supersteps.
func TestPipelineWorkersPersistAcrossSupersteps(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 4
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		tr.Close()
		testutil.NoLeakedGoroutines(t, base)
	}()

	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		outs[i] = []transport.Envelope[testMsg]{
			{From: transport.MachineID(i), To: transport.MachineID((i + 1) % k), Words: 1, Msg: testMsg{Tag: int64(i)}},
		}
	}
	if _, err := tr.Exchange(context.Background(), 0, outs); err != nil {
		t.Fatal(err)
	}
	// Population after the first superstep: transport drivers and data
	// workers, all persistent.
	settled := runtime.NumGoroutine()
	for step := 1; step <= 50; step++ {
		if _, err := tr.Exchange(context.Background(), step, outs); err != nil {
			t.Fatalf("superstep %d: %v", step, err)
		}
	}
	// Workers park between supersteps rather than exiting, so the count
	// must not drift in either direction (a small grace for unrelated
	// runtime goroutines).
	if now := runtime.NumGoroutine(); now > settled+2 || now < settled-2 {
		t.Errorf("goroutine population drifted across supersteps: %d after superstep 0, %d after 50", settled, now)
	}
}

// TestWireStatsCountsFrames checks the physical-layer accounting: a
// healthy loopback mesh receives every byte it ships, the per-superstep
// frame count matches the protocol (a batch frame and a row frame per
// directed pair, nothing else), and byte totals grow monotonically with
// traffic.
func TestWireStatsCountsFrames(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if w := tr.WireStats(); w.FramesSent != 0 || w.BytesSent != 0 {
		t.Fatalf("fresh transport reports nonzero wire stats: %+v", w)
	}
	empty := make([][]transport.Envelope[testMsg], k)
	if _, err := tr.Exchange(context.Background(), 0, empty); err != nil {
		t.Fatal(err)
	}
	w0 := tr.WireStats()
	if w0.BytesSent != w0.BytesRecv || w0.FramesSent != w0.FramesRecv {
		t.Errorf("loopback mesh sent %d bytes/%d frames but received %d/%d",
			w0.BytesSent, w0.FramesSent, w0.BytesRecv, w0.FramesRecv)
	}
	// One batch frame and one row frame per directed pair; the cluster
	// Transport's rows are empty, and no control frame crosses a socket.
	wantFrames := int64(2 * k * (k - 1))
	if w0.FramesSent != wantFrames {
		t.Errorf("empty superstep shipped %d frames, want %d", w0.FramesSent, wantFrames)
	}

	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			outs[i] = append(outs[i], transport.Envelope[testMsg]{
				From: transport.MachineID(i), To: transport.MachineID(j), Words: 5, Msg: testMsg{Tag: 77},
			})
		}
	}
	if _, err := tr.Exchange(context.Background(), 1, outs); err != nil {
		t.Fatal(err)
	}
	w1 := tr.WireStats()
	if w1.FramesSent != 2*wantFrames {
		t.Errorf("two supersteps shipped %d frames, want %d", w1.FramesSent, 2*wantFrames)
	}
	if w1.BytesSent-w0.BytesSent <= w0.BytesSent/2 {
		t.Errorf("loaded superstep (%d bytes) not measurably heavier than empty one (%d)",
			w1.BytesSent-w0.BytesSent, w0.BytesSent)
	}
}

// TestSuperstepOpsBeforeConnectFailFast: a superstep opened on an
// endpoint whose mesh never connected must error, not panic into nil
// worker channels.
func TestSuperstepOpsBeforeConnectFailFast(t *testing.T) {
	ep, err := Listen[testMsg](0, 3, "127.0.0.1:0", testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.StreamBatch(1, nil); err == nil {
		t.Error("StreamBatch before Connect succeeded")
	}
	if _, err := ep.Exchange(context.Background(), 0, nil); err == nil {
		t.Error("Exchange before Connect succeeded")
	}
}

// TestExchangeAfterCloseFailsFast: the closed guard must turn an
// Exchange on a closed transport into an immediate error instead of
// signalling workers that no longer exist (which would hang the
// WaitGroup forever).
func TestExchangeAfterCloseFailsFast(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	done := make(chan error, 1)
	go func() {
		_, err := tr.Exchange(context.Background(), 0, make([][]transport.Envelope[testMsg], k))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exchange on a closed transport succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange on a closed transport hung")
	}
}

// TestBadFrameFailsWhereItIsFound pins the split of the receive path:
// what a frame's header can show (another job, another superstep, an
// envelope count the frame cannot hold) fails in the reader worker,
// before any inbox is sized from the frame's count; a sound header over
// a corrupt body fails in FinishSuperstep's decode. Either way the
// outcome is the one a reader-side decode failure always had: a
// *transport.MachineError naming the sender and the job, the endpoint
// closed, the sender blamed to the bystander, no goroutine left behind.
// Machine 1 is the culprit and ships raw bytes; machines 0 and 2 run
// real endpoints.
func TestBadFrameFailsWhereItIsFound(t *testing.T) {
	const job = 7
	jobbed := func(body ...byte) []byte { return append(wire.AppendJobHeader(nil, job), body...) }
	empty, err := wire.AppendBatchV2(jobbed(), 0, 1, 2, []transport.Envelope[testMsg](nil), testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	wrongStep, _ := wire.AppendBatchV2(jobbed(), 5, 1, 0, []transport.Envelope[testMsg](nil), testCodec{})
	wrongJob, _ := wire.AppendBatchV2(wire.AppendJobHeader(nil, job+1), 0, 1, 0, []transport.Envelope[testMsg](nil), testCodec{})
	for _, row := range []struct {
		name     string
		frame    []byte
		inReader bool
	}{
		{"wrong superstep", wrongStep, true},
		{"wrong job", wrongJob, true},
		// superstep 0, then a count of 2^35 envelopes in a 7-byte frame.
		{"oversize count", jobbed(wire.BatchV2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), true},
		// superstep 0, one envelope: From run (delta 0, length 1), one
		// word, a one-byte payload section — holding a truncated varint.
		{"corrupt payload", jobbed(wire.BatchV2, 0, 1, 0, 1, 1, 1, 0x80), false},
	} {
		t.Run(row.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ms, err := NewLoopbackSocketMesh(3)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, m := range ms {
					m.Close()
				}
				testutil.NoLeakedGoroutines(t, base)
			}()
			e0, err := Attach[testMsg](ms[0], testCodec{}, job)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := Attach[testMsg](ms[2], testCodec{}, job)
			if err != nil {
				t.Fatal(err)
			}
			// Each batch is followed by machine 1's (empty) row frame.
			if err := ms[1].out[0].writeFrameLocked(time.Time{}, row.frame, nil); err != nil {
				t.Fatal(err)
			}
			if err := ms[1].out[2].writeFrameLocked(time.Time{}, empty, nil); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			blames := func(what string, err error) {
				t.Helper()
				var me *transport.MachineError
				if !errors.As(err, &me) || me.Machine != 1 || me.Job != job {
					t.Fatalf("%s: got %v, want a MachineError naming machine 1 in job %d", what, err, job)
				}
			}

			if row.inReader {
				// Only the readers run: the verdict must be in before
				// FinishSuperstep has had a chance to size anything.
				if err := e0.BeginSuperstep(ctx, 0); err != nil {
					t.Fatal(err)
				}
				e0.workWG.Wait()
				if e0.inboxes[0] != nil || e0.inboxes[1] != nil {
					t.Fatal("an inbox was sized before the reader rejected the frame")
				}
				_, _, err := e0.FinishSuperstep(0, nil, nil)
				blames("machine 0", err)
			} else {
				_, errs := jobExchange([]*Endpoint[testMsg]{e0, e2}, 0, make([][]transport.Envelope[testMsg], 2))
				blames("machine 0", errs[0])
				if errs[1] != nil {
					t.Fatalf("bystander's superstep 0 failed: %v", errs[1])
				}
			}
			if _, err := e0.Exchange(ctx, 1, nil); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("machine 0 after the failure: got %v, want a closed endpoint", err)
			}
			// The bystander learns the culprit from machine 0's blame frame,
			// not from machine 0's own FIN. Drain its readers before the
			// finish so no writer can race the verdict.
			step := 0
			if !row.inReader {
				step = 1
			}
			if err := e2.BeginSuperstep(ctx, step); err != nil {
				t.Fatal(err)
			}
			e2.workWG.Wait()
			_, _, err = e2.FinishSuperstep(step, nil, nil)
			blames("bystander", err)
		})
	}
}

package tcp

// Tests for the persistent exchange pipeline: reader lifecycle (spawned
// once, parked between supersteps, retired on Close), writes on the
// producing goroutine over full socket buffers, and bytes-on-wire
// accounting.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/wire"
)

// TestPipelineWorkersPersistAcrossSupersteps pins the goroutine
// population of the exchange path: it is created by mesh construction —
// one reader per directed pair and nothing else, since every frame is
// written by the goroutine that made it — does NOT grow or churn across
// supersteps, and drains completely on Close. The previous engine
// spawned ~2k goroutines per endpoint per superstep; a regression to
// that shows up here as a goroutine-count delta between supersteps, and
// a writer worker coming back as k(k-1) goroutines too many.
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
	// Population after the first superstep: k(k-1) readers plus the
	// fixture's k drivers, all persistent (a small grace for unrelated
	// runtime goroutines).
	settled := runtime.NumGoroutine()
	if want := base + k*(k-1) + k; settled > want+2 || settled < want-2 {
		t.Errorf("%d goroutines after superstep 0, want %d: k(k-1) = %d readers and k = %d drivers over a baseline of %d",
			settled, want, k*(k-1), k, base)
	}
	for step := 1; step <= 50; step++ {
		if _, err := tr.Exchange(context.Background(), step, outs); err != nil {
			t.Fatalf("superstep %d: %v", step, err)
		}
	}
	// Readers park between supersteps rather than exiting, so the count
	// must not drift in either direction.
	if now := runtime.NumGoroutine(); now > settled+2 || now < settled-2 {
		t.Errorf("goroutine population drifted across supersteps: %d after superstep 0, %d after 50", settled, now)
	}
}

// blobCodec ships a message that is one byte slice. Decode aliases the
// frame instead of copying, so a test can move frames far larger than
// the socket buffers while holding little more than the frames
// themselves.
type blobCodec struct{}

func (blobCodec) Append(dst []byte, m []byte) ([]byte, error) {
	return append(wire.AppendUvarint(dst, uint64(len(m))), m...), nil
}

func (blobCodec) Decode(src []byte) ([]byte, int, error) {
	c := wire.Cursor{Src: src}
	b := c.LenPrefixed()
	return b, c.Off, c.Err
}

// TestInlineWritesOverFullSocketBuffers pins the property that makes
// writing on the producing goroutine deadlock-free: every machine
// emits an 8 MiB batch to one peer and leaves as large a rest for the
// other, all at once, so every directed pair carries a
// frame about twice what an unread loopback connection absorbs (~4 MB
// on a stock Linux kernel) and every write blocks until the receiving
// peer's reader drains it. The readers are released in BeginSuperstep,
// before the Step, so nothing waits on anything that waits on it; a
// deadlock would surface as the 30 s superstep deadline expiring. The inboxes must equal the
// loopback's for the same outs, and no goroutine may be left behind.
func TestInlineWritesOverFullSocketBuffers(t *testing.T) {
	const k, size, supersteps = 3, 8 << 20, 2
	blob := make([]byte, size+k)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	base := runtime.NumGoroutine()
	eps := attachAll(t, k, blobCodec{})
	defer func() {
		for _, e := range eps {
			e.Close()
		}
		testutil.NoLeakedGoroutines(t, base)
	}()

	// Each machine emits one blob to a peer, leaves another for the
	// other peer and a small one for itself in the rest; the two peers
	// trade places every superstep. The blobs are windows of one shared
	// slice, each machine's shifted, so a misrouted frame cannot pass.
	type plan struct {
		emitted [][]transport.Envelope[[]byte]
		rest    []transport.Envelope[[]byte]
	}
	plans := func(step int) []plan {
		p := make([]plan, k)
		for i := range p {
			me := transport.MachineID(i)
			to, restTo := transport.MachineID((i+1)%k), transport.MachineID((i+2)%k)
			if step%2 == 1 {
				to, restTo = restTo, to
			}
			p[i] = plan{emitted: make([][]transport.Envelope[[]byte], k),
				rest: []transport.Envelope[[]byte]{
					{From: me, To: restTo, Words: 2, Msg: blob[k-i : size+k-i]},
					{From: me, To: me, Words: 1, Msg: blob[:i+1]},
				}}
			p[i].emitted[to] = []transport.Envelope[[]byte]{{From: me, To: to, Words: 1, Msg: blob[i : size+i]}}
		}
		return p
	}

	lb := inmem.New[[]byte](k)
	for step := 0; step < supersteps; step++ {
		p := plans(step)
		batches := make([][][]transport.Envelope[[]byte], k)
		rest := make([][]transport.Envelope[[]byte], k)
		for i := range p {
			batches[i], rest[i] = p[i].emitted, p[i].rest
		}
		want, err := lb.Deliver(batches, rest)
		if err != nil {
			t.Fatal(err)
		}

		errs := make([]error, k)
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				e := eps[i]
				if errs[i] = e.BeginSuperstep(ctx, step); errs[i] != nil {
					return
				}
				inbox, _, err := e.FinishSuperstep(step, p[i].emitted, p[i].rest, nil)
				if err != nil {
					errs[i] = err
					return
				}
				// The inbox aliases this endpoint's frame buffers, which
				// only its own next BeginSuperstep overwrites.
				if !reflect.DeepEqual(inbox, want[i]) {
					errs[i] = fmt.Errorf("inbox differs from the loopback's (%d vs %d envelopes)", len(inbox), len(want[i]))
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("superstep %d, machine %d: %v", step, i, err)
			}
		}
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

// TestExchangeAfterCloseFailsFast: the closed guard must turn an
// Exchange on a closed transport into an immediate error instead of
// signalling readers that no longer exist (which would hang the
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
			ms, err := NewLoopbackMesh(3)
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
				if e0.inbox != nil {
					t.Fatal("an inbox was sized before the reader rejected the frame")
				}
				_, _, err := e0.FinishSuperstep(0, nil, nil, nil)
				blames("machine 0", err)
			} else {
				_, errs := jobExchange([]*Endpoint[testMsg]{e0, e2}, 0, make([][]transport.Envelope[testMsg], 2))
				blames("machine 0", errs[0])
				if errs[1] != nil {
					t.Fatalf("bystander's superstep 0 failed: %v", errs[1])
				}
			}
			if _, err := exchange(ctx, e0, 1, nil); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("machine 0 after the failure: got %v, want a closed endpoint", err)
			}
			// The bystander learns the culprit from machine 0's blame frame,
			// not from machine 0's own FIN. Drain its readers before the
			// finish so no write can race the verdict.
			step := 0
			if !row.inReader {
				step = 1
			}
			if err := e2.BeginSuperstep(ctx, step); err != nil {
				t.Fatal(err)
			}
			e2.workWG.Wait()
			_, _, err = e2.FinishSuperstep(step, nil, nil, nil)
			blames("bystander", err)
		})
	}
}

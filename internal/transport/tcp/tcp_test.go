package tcp

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"kmachine/internal/rng"
	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/wire"
)

type testMsg struct {
	Tag int64
}

type testCodec struct{}

func (testCodec) Append(dst []byte, m testMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.Tag), nil
}

func (testCodec) Decode(src []byte) (testMsg, int, error) {
	c := wire.Cursor{Src: src}
	m := testMsg{Tag: c.Varint()}
	return m, c.Off, c.Err
}

// attachAll attaches a single run's (job 0) endpoint to every machine
// of a fresh k-machine loopback mesh.
func attachAll[M any](t *testing.T, k int, codec wire.Codec[M]) []*Endpoint[M] {
	t.Helper()
	return attachTo(t, fabricMesh(t, k), codec)
}

// attachTo attaches a single run's (job 0) endpoint to every machine
// of ms.
func attachTo[M any](t *testing.T, ms []*Mesh, codec wire.Codec[M]) []*Endpoint[M] {
	t.Helper()
	eps := make([]*Endpoint[M], len(ms))
	for i, m := range ms {
		var err error
		if eps[i], err = Attach(m, codec, 0); err != nil {
			t.Fatal(err)
		}
	}
	return eps
}

func fabricMesh(t *testing.T, k int) []*Mesh {
	t.Helper()
	ms, err := NewLoopbackMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// kernelMesh builds a k-machine mesh the way a cluster of processes
// does — ListenMesh on 127.0.0.1, then Connect, every machine at once —
// so that a suite run over it crosses real TCP sockets.
func kernelMesh(t *testing.T, k int) []*Mesh {
	t.Helper()
	ms := make([]*Mesh, k)
	addrs := make([]string, k)
	for i := range ms {
		m, err := ListenMesh(i, k, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ms[i], addrs[i] = m, m.Addr()
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Connect(addrs, DefaultDialTimeout)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return ms
}

// meshKinds are the two ways to build a mesh: the in-memory one every
// one-process cluster runs on, and real TCP sockets.
var meshKinds = []struct {
	name  string
	build func(*testing.T, int) []*Mesh
}{{"fabric", fabricMesh}, {"kernel", kernelMesh}}

// exchange is one whole superstep on e, out split by destination, with
// an empty row.
func exchange(ctx context.Context, e *Endpoint[testMsg], step int, out []transport.Envelope[testMsg]) ([]transport.Envelope[testMsg], error) {
	if err := e.BeginSuperstep(ctx, step); err != nil {
		return nil, err
	}
	inbox, _, err := e.FinishSuperstep(step, byDest(e.k, out), nil)
	return inbox, err
}

// byDest splits out by destination into fresh per-peer batches.
func byDest[M any](k int, out []transport.Envelope[M]) [][]transport.Envelope[M] {
	batches, _ := new(transport.Splitter[M]).Split(k, out)
	return batches
}

// randomOuts builds a deterministic random traffic pattern, including
// self-addressed envelopes and silent machines.
func randomOuts(r *rng.RNG, k int) [][]transport.Envelope[testMsg] {
	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		for n := r.Intn(20); n > 0; n-- {
			outs[i] = append(outs[i], transport.Envelope[testMsg]{
				From:  transport.MachineID(i),
				To:    transport.MachineID(r.Intn(k)),
				Words: int32(r.Intn(50)),
				Msg:   testMsg{Tag: int64(r.Uint64() >> 1)},
			})
		}
	}
	return outs
}

// TestTCPExchangeMatchesLoopback: over either kind of mesh, every
// machine's inbox of every superstep equals the loopback's for the same
// random traffic.
func TestTCPExchangeMatchesLoopback(t *testing.T) {
	const k = 5
	for _, kind := range meshKinds {
		t.Run(kind.name, func(t *testing.T) {
			eps := attachTo(t, kind.build(t, k), testCodec{})
			defer func() {
				for _, e := range eps {
					e.Close()
				}
			}()
			lb := inmem.New[testMsg](k)
			rT, rL := rng.New(99), rng.New(99)
			for step := 0; step < 30; step++ {
				got, errs := jobExchange(eps, step, randomOuts(rT, k))
				for i, err := range errs {
					if err != nil {
						t.Fatalf("superstep %d machine %d: %v", step, i, err)
					}
				}
				want, err := lb.Exchange(context.Background(), step, randomOuts(rL, k))
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < k; j++ {
					if len(got[j]) == 0 && len(want[j]) == 0 {
						continue
					}
					if !reflect.DeepEqual(got[j], want[j]) {
						t.Fatalf("superstep %d inbox %d:\n tcp:    %+v\n inmem:  %+v", step, j, got[j], want[j])
					}
				}
			}
		})
	}
}

func TestTCPEmptySuperstep(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inboxes, err := tr.Exchange(context.Background(), 0, make([][]transport.Envelope[testMsg], k))
	if err != nil {
		t.Fatal(err)
	}
	for j, in := range inboxes {
		if len(in) != 0 {
			t.Errorf("machine %d got %d envelopes from an empty superstep", j, len(in))
		}
	}
}

// TestEndpointKeepsOneInbox pins the socket link's buffer rule: an
// endpoint decodes each superstep's inbox over the previous one's
// storage, which the caller's Step no longer reads, and copies the
// self-addressed envelopes of out into position id of the sender order,
// in out's order, with no staging copy in between.
func TestEndpointKeepsOneInbox(t *testing.T) {
	const k = 3
	eps := attachAll(t, k, testCodec{})
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	tag := func(step, from, n int) int64 { return int64(100*step + 10*from + n) }
	var prev [][]transport.Envelope[testMsg]
	for step := 0; step < 2; step++ {
		// Machine i's out interleaves destinations: two rounds of one
		// envelope to every machine, itself included.
		outs := make([][]transport.Envelope[testMsg], k)
		for i := range outs {
			for n := 0; n < 2; n++ {
				for j := 0; j < k; j++ {
					outs[i] = append(outs[i], transport.Envelope[testMsg]{From: transport.MachineID(i),
						To: transport.MachineID(j), Words: 1, Msg: testMsg{Tag: tag(step, i, n)}})
				}
			}
		}
		inboxes, errs := jobExchange(eps, step, outs)
		for j, inbox := range inboxes {
			if errs[j] != nil {
				t.Fatalf("superstep %d machine %d: %v", step, j, errs[j])
			}
			var want []int64
			for from := 0; from < k; from++ {
				want = append(want, tag(step, from, 0), tag(step, from, 1))
			}
			var got []int64
			for _, env := range inbox {
				got = append(got, env.Msg.Tag)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("superstep %d inbox %d: tags %v, want %v (sender order, each sender's out order)", step, j, got, want)
			}
			if prev != nil && &inbox[0] != &prev[j][0] {
				t.Errorf("machine %d: superstep %d's inbox is new storage; it must reuse superstep %d's, which fits it", j, step, step-1)
			}
		}
		prev = inboxes
	}
}

// TestBrokenConnectionErrorsInsteadOfDeadlocking is the regression test
// for the error-cascade teardown: a connection failing mid-run must
// surface as an Exchange error on every machine, not wedge the cluster
// in deadline-free reads.
func TestBrokenConnectionErrorsInsteadOfDeadlocking(t *testing.T) {
	const k = 3
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Exchange(context.Background(), 0, make([][]transport.Envelope[testMsg], k)); err != nil {
		t.Fatalf("healthy superstep: %v", err)
	}
	// Sever one data connection behind the transport's back.
	tr.eps[0].out[1].c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := tr.Exchange(context.Background(), 1, make([][]transport.Envelope[testMsg], k))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exchange succeeded over a severed connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange deadlocked on a severed connection")
	}
}

// TestExchangeDeadlineOnWedgedPeer is the regression test for the
// original hang: a peer that is alive but never ships its superstep
// batch must surface as a machine-attributed os.ErrDeadlineExceeded
// within the context deadline, not block forever — over either kind of
// mesh.
func TestExchangeDeadlineOnWedgedPeer(t *testing.T) {
	for _, kind := range meshKinds {
		t.Run(kind.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			eps := attachTo(t, kind.build(t, 2), testCodec{})
			defer func() {
				for _, e := range eps {
					e.Close()
				}
				testutil.NoLeakedGoroutines(t, base)
			}()

			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			start := time.Now()
			// Machine 1 never calls Exchange: machine 0's read of its batch can
			// only end by deadline.
			_, err := exchange(ctx, eps[0], 0, nil)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("Exchange against a wedged peer succeeded")
			}
			if elapsed > 5*time.Second {
				t.Fatalf("deadline took %v to fire, want ~200ms", elapsed)
			}
			var me *transport.MachineError
			if !errors.As(err, &me) {
				t.Fatalf("error %v carries no machine attribution", err)
			}
			if me.Machine != 1 || me.Superstep != 0 {
				t.Errorf("attributed to machine %d superstep %d, want 1/0", me.Machine, me.Superstep)
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("error %v does not wrap os.ErrDeadlineExceeded", err)
			}
		})
	}
}

// TestExchangeCancellationUnblocks: with no deadline at all, canceling
// the context must still tear the endpoint down and unblock the read.
func TestExchangeCancellationUnblocks(t *testing.T) {
	eps := attachAll(t, 2, testCodec{})
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := exchange(ctx, eps[0], 0, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exchange succeeded under a canceled context with a wedged peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock Exchange")
	}
}

// TestCloseIdempotent: Close must be safe to call repeatedly and
// concurrently — the error cascade, context cancellation, and deferred
// cleanup all close the same endpoint.
func TestCloseIdempotent(t *testing.T) {
	eps := attachAll(t, 3, testCodec{})
	var wg sync.WaitGroup
	for _, e := range eps {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(e *Endpoint[testMsg]) {
				defer wg.Done()
				e.Close()
			}(e)
		}
	}
	wg.Wait()
	for i, e := range eps {
		if got, again := e.Close(), e.Close(); got != again {
			t.Errorf("endpoint %d: repeated Close returned %v then %v", i, got, again)
		}
	}
}

// TestTransportCloseIdempotent mirrors the endpoint check on the
// cluster-side Transport, including Close after one endpoint closed.
func TestTransportCloseIdempotent(t *testing.T) {
	tr, err := New[testMsg](3, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.eps[1].Close(); err != nil {
		t.Fatalf("close endpoint 1: %v", err)
	}
	tr.Close()
	tr.Close()
}

package tcp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// jobExchange runs one superstep of exchange concurrently on every
// endpoint (the per-machine halves of one mesh), returning the per-
// machine inboxes and errors.
func jobExchange(eps []*Endpoint[testMsg], step int, outs [][]transport.Envelope[testMsg]) ([][]transport.Envelope[testMsg], []error) {
	k := len(eps)
	inboxes := make([][]transport.Envelope[testMsg], k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inboxes[i], errs[i] = exchange(context.Background(), eps[i], step, outs[i])
		}(i)
	}
	wg.Wait()
	return inboxes, errs
}

// TestMeshReuseAcrossJobs is the standing-fabric contract: one socket
// mesh, several sequential jobs, each with its own attached endpoints —
// every job's traffic arrives intact, Detach leaves the mesh healthy,
// and no pipeline goroutine leaks across jobs. A superstep finished
// before any is open is refused, and the endpoint stays usable.
func TestMeshReuseAcrossJobs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const k = 3
	ms, err := NewLoopbackMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()

	for job := uint64(1); job <= 3; job++ {
		eps := make([]*Endpoint[testMsg], k)
		for i := 0; i < k; i++ {
			e, err := Attach[testMsg](ms[i], testCodec{}, job)
			if err != nil {
				t.Fatalf("job %d: attach machine %d: %v", job, i, err)
			}
			eps[i] = e
		}
		if _, _, err := eps[0].FinishSuperstep(0, nil, nil); err == nil {
			t.Fatalf("job %d: FinishSuperstep outside an open superstep succeeded", job)
		}
		for step := 0; step < 3; step++ {
			outs := make([][]transport.Envelope[testMsg], k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					outs[i] = append(outs[i], transport.Envelope[testMsg]{
						From: transport.MachineID(i), To: transport.MachineID(j),
						Words: 1, Msg: testMsg{Tag: int64(job)*1000 + int64(step)*10 + int64(i)},
					})
				}
			}
			inboxes, errs := jobExchange(eps, step, outs)
			for i := 0; i < k; i++ {
				if errs[i] != nil {
					t.Fatalf("job %d superstep %d machine %d: %v", job, step, i, errs[i])
				}
				if len(inboxes[i]) != k {
					t.Fatalf("job %d superstep %d machine %d: %d envelopes, want %d", job, step, i, len(inboxes[i]), k)
				}
				for _, env := range inboxes[i] {
					want := int64(job)*1000 + int64(step)*10 + int64(env.From)
					if env.Msg.Tag != want {
						t.Fatalf("job %d superstep %d machine %d: tag %d from %d, want %d",
							job, step, i, env.Msg.Tag, env.From, want)
					}
				}
			}
		}
		for _, e := range eps {
			e.Detach()
		}
		for i, m := range ms {
			if !m.Healthy() {
				t.Fatalf("job %d: mesh %d unhealthy after clean detach", job, i)
			}
		}
	}
	testutil.NoLeakedGoroutines(t, baseline)
}

// TestAttachJobMismatchDetected: endpoints attached for different jobs
// on the same mesh must reject each other's frames as attributed
// errors carrying the receiver's job ID — never decode them. Job 0, a
// single run, is a job like any other: its frames name it, so a
// mismatch with it is told like any other mismatch. With k = 2 no blame
// frame reaches the suspect, so the machine that read the other's batch
// first names the mismatch.
func TestAttachJobMismatchDetected(t *testing.T) {
	const k = 2
	for _, jobs := range [][k]uint64{{7, 8}, {0, 7}, {7, 0}} {
		t.Run(fmt.Sprintf("%d-%d", jobs[0], jobs[1]), func(t *testing.T) {
			ms, err := NewLoopbackMesh(k)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, m := range ms {
					m.Close()
				}
			}()
			eps := make([]*Endpoint[testMsg], k)
			for i, m := range ms {
				if eps[i], err = Attach[testMsg](m, testCodec{}, jobs[i]); err != nil {
					t.Fatal(err)
				}
			}
			_, errs := jobExchange(eps, 0, make([][]transport.Envelope[testMsg], k))
			var sawMismatch bool
			for i, err := range errs {
				if err == nil {
					t.Fatalf("machine %d accepted a frame from another job", i)
				}
				var me *transport.MachineError
				want := fmt.Sprintf("frame for job %d during job %d", jobs[1-i], jobs[i])
				if errors.As(err, &me) && me.Job == jobs[i] && strings.Contains(err.Error(), want) {
					sawMismatch = true
				}
			}
			if !sawMismatch {
				t.Fatalf("no job mismatch surfaced: %v / %v", errs[0], errs[1])
			}
			// The failure closed connections: the mesh is poisoned for reuse.
			if ms[0].Healthy() && ms[1].Healthy() {
				t.Fatal("both meshes still healthy after a job-mismatch failure")
			}
		})
	}
}

// TestAttachRejectsDeadMesh: attaching to a closed or never-connected
// mesh fails fast instead of wedging the first superstep.
func TestAttachRejectsDeadMesh(t *testing.T) {
	ms, err := NewLoopbackMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	ms[0].Close()
	ms[1].Close()
	if _, err := Attach[testMsg](ms[0], testCodec{}, 1); err == nil {
		t.Fatal("attach to closed mesh succeeded")
	}
	lone, err := ListenMesh(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	if _, err := Attach[testMsg](lone, testCodec{}, 1); err == nil {
		t.Fatal("attach to unconnected mesh succeeded")
	}
}

// TestMeshRejectsOutOfRangeHello: a stranger that reaches a machine's
// listener while its mesh connects and names itself machine 2^63 — a
// negative int, so a signed range check passes it — is refused as an
// invalid peer instead of indexing the accepted-connection table.
func TestMeshRejectsOutOfRangeHello(t *testing.T) {
	m, err := ListenMesh(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Machine 1 is a bare listener that takes machine 0's dial and
	// drains it until the failed Connect closes the mesh.
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go func() {
		if c, err := peer.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	done := make(chan error, 1)
	go func() { done <- m.Connect([]string{m.Addr(), peer.Addr().String()}, 10*time.Second) }()

	c, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, wire.AppendUvarint(nil, 1<<63)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "invalid peer") {
		t.Fatalf("Connect after a hello from machine 2^63 = %v, want an invalid-peer error", err)
	}
}

package tcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// TestMeshHoldsOneHalfPerEnd: a connection end holds only the buffer
// of the one direction it carries — a dialed end (outConn, by type)
// has no reader and no write buffer, an accepted end (inConn) one
// readBufSize reader and no write half — and no byte buffer is grown
// before a job needs it. With a 64 KiB reader and writer on every end,
// a k = 8 mesh allocated 14.2 MiB, half of it never touched.
func TestMeshHoldsOneHalfPerEnd(t *testing.T) {
	const k = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ms, err := NewLoopbackMesh(k)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewLoopbackMesh(%d) allocated %d KiB", k, got>>10)
	if got > 1<<20 {
		t.Errorf("NewLoopbackMesh(%d) allocated %d KiB, budget 1024 KiB — a connection end holds a buffer it does not use", k, got>>10)
	}
	for _, m := range ms {
		for j := 0; j < k; j++ {
			oc, ic := m.out[j], m.in[j]
			if j == m.id {
				if oc != nil || ic != nil {
					t.Errorf("machine %d holds a connection to itself", m.id)
				}
				continue
			}
			if oc.tx != nil {
				t.Errorf("machine %d: dialed end to %d has an encode buffer before any job", m.id, j)
			}
			if size := ic.r.Size(); size != readBufSize {
				t.Errorf("machine %d: accepted end from %d reads through %d bytes, want %d", m.id, j, size, readBufSize)
			}
			if ic.frame != nil || ic.rowFrame != nil {
				t.Errorf("machine %d: accepted end from %d has read buffers before any job", m.id, j)
			}
		}
	}
}

// stepAll runs superstep step on every endpoint at once, each machine
// i finishing with outs[i] and rows[i], and checks each inbox and the
// rows it got against what was sent: the envelopes addressed to it in
// sender-ID order, and every peer's row as written.
func stepAll[M any](t *testing.T, eps []*Endpoint[M], step int, outs [][]transport.Envelope[M], rows [][]byte) {
	t.Helper()
	k := len(eps)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := eps[i]
			if err := e.BeginSuperstep(context.Background(), step); err != nil {
				errs[i] = err
				return
			}
			inbox, got, err := e.FinishSuperstep(step, nil, outs[i], rows[i])
			if err != nil {
				errs[i] = err
				return
			}
			var want []transport.Envelope[M]
			for s := range outs {
				for _, env := range outs[s] {
					if int(env.To) == i {
						want = append(want, env)
					}
				}
			}
			if fmt.Sprint(inbox) != fmt.Sprint(want) {
				errs[i] = fmt.Errorf("machine %d superstep %d inbox %v, want %v", i, step, inbox, want)
				return
			}
			for j := range got {
				if j != i && !bytes.Equal(got[j], rows[j]) {
					errs[i] = fmt.Errorf("machine %d superstep %d row from %d = %q, want %q", i, step, j, got[j], rows[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// backing names the array behind a buffer's capacity, nil for none.
func backing(b []byte) *byte { return unsafe.SliceData(b) }

// TestConnBuffersOutliveTheJob: the encode and read buffers belong to
// the connection ends, so a standing mesh carries them from one job to
// the next — job 2, of another message type, writes and reads in the
// very arrays job 1 grew — while no byte of job 1's data reaches job
// 2's inboxes or rows. Run it under -race too: job 1's retiring readers
// and job 2's readers touch the same buffers.
func TestConnBuffersOutliveTheJob(t *testing.T) {
	const k = 4
	ms, err := NewLoopbackMesh(k)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()

	// Job 1: every machine sends 50 envelopes and a 64-byte row to every
	// machine, itself included, in each of two supersteps.
	job1 := make([]*Endpoint[testMsg], k)
	for i, m := range ms {
		if job1[i], err = Attach[testMsg](m, testCodec{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 2; step++ {
		outs := make([][]transport.Envelope[testMsg], k)
		rows := make([][]byte, k)
		for i := range outs {
			for j := 0; j < k; j++ {
				for n := 0; n < 50; n++ {
					outs[i] = append(outs[i], transport.Envelope[testMsg]{From: transport.MachineID(i), To: transport.MachineID(j),
						Words: 1, Msg: testMsg{Tag: int64(1_000_000*step + 1000*i + n)}})
				}
			}
			rows[i] = bytes.Repeat([]byte{byte('a' + i)}, 64)
		}
		stepAll(t, job1, step, outs, rows)
	}
	for _, e := range job1 {
		e.Detach()
	}
	type bufs struct{ tx, frame, rowFrame *byte }
	grown := make([][]bufs, k)
	for i, m := range ms {
		grown[i] = make([]bufs, k)
		for j := 0; j < k; j++ {
			if j != i {
				grown[i][j] = bufs{backing(m.out[j].tx), backing(m.in[j].frame), backing(m.in[j].rowFrame)}
				if grown[i][j].tx == nil || grown[i][j].frame == nil || grown[i][j].rowFrame == nil {
					t.Fatalf("machine %d: job 1 grew no buffer on its connections with %d", i, j)
				}
			}
		}
	}

	// Job 2, another message type: fewer, smaller envelopes and rows,
	// which fit in what job 1 grew.
	job2 := make([]*Endpoint[string], k)
	for i, m := range ms {
		if job2[i], err = Attach[string](m, stringCodec{}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 2; step++ {
		outs := make([][]transport.Envelope[string], k)
		rows := make([][]byte, k)
		for i := range outs {
			for j := 0; j < k; j++ {
				outs[i] = append(outs[i], transport.Envelope[string]{From: transport.MachineID(i), To: transport.MachineID(j),
					Words: 2, Msg: fmt.Sprintf("job2 step%d %d->%d", step, i, j)})
			}
			rows[i] = []byte(fmt.Sprintf("row %d/%d", step, i))
		}
		stepAll(t, job2, step, outs, rows)
	}
	for i, m := range ms {
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			now := bufs{backing(m.out[j].tx), backing(m.in[j].frame), backing(m.in[j].rowFrame)}
			if now != grown[i][j] {
				t.Errorf("machine %d: job 2 replaced a buffer of its connections with %d (job 1 %v, job 2 %v)", i, j, grown[i][j], now)
			}
		}
	}
	for _, e := range job2 {
		e.Detach()
	}
}

// stringCodec frames a string message as its length and bytes.
type stringCodec struct{}

func (stringCodec) Append(dst []byte, m string) ([]byte, error) {
	return append(wire.AppendUvarint(dst, uint64(len(m))), m...), nil
}

func (stringCodec) Decode(src []byte) (string, int, error) {
	c := wire.Cursor{Src: src}
	s := string(c.LenPrefixed())
	return s, c.Off, c.Err
}

// tooLargeBacking is the one byte tooLargeFrame's slice owns.
var tooLargeBacking byte

// tooLargeFrame returns a payload one byte above wire.MaxFrame without
// allocating a gigabyte: the slice claims memory it does not own, which
// is sound only because a refused frame's payload is never read.
// nocheckptr exempts this one conversion from the pointer checks -race
// turns on.
//
//go:nocheckptr
func tooLargeFrame() []byte {
	return unsafe.Slice(&tooLargeBacking, wire.MaxFrame+1)
}

// TestRefusedFrameLeavesNothingOnTheConnection: writeFrames builds
// every header before it writes, so a call whose second frame is over
// wire.MaxFrame sends not even its first; the next call's frame is the
// first the reader sees.
func TestRefusedFrameLeavesNothingOnTheConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	oc, ic := &outConn{c: c}, newInConn(a)

	dl := time.Now().Add(5 * time.Second)
	if err := oc.writeFrameLocked(dl, []byte("batch"), tooLargeFrame()); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("writing a frame of MaxFrame+1 bytes = %v, want %v", err, wire.ErrFrameTooLarge)
	}
	if err := oc.writeFrameLocked(dl, []byte("next")); err != nil {
		t.Fatal(err)
	}
	a.SetReadDeadline(dl)
	got, err := wire.ReadFrameInto(ic.r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "next" {
		t.Errorf("first frame on the connection is %q, want %q: the refused call wrote part of itself", got, "next")
	}
}

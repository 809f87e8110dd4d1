package tcp

// Socket-level tests of the in-memory connection NewLoopbackMesh is
// built on: each pins one behaviour of a kernel socket the mesh relies
// on, with no mesh around it. Every outcome here is the same whichever
// of two goroutines gets there first, so none of them sleeps.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestFabricDeadlines: a deadline fails a read parked on an empty ring
// and a write parked on a full one with os.ErrDeadlineExceeded; a
// deadline moved into the past fails a read already parked, and a
// cleared deadline lets the next call through. A write returns once
// its bytes are buffered, so a full ring takes no reader.
func TestFabricDeadlines(t *testing.T) {
	a, b := fabricPipe()
	defer a.Close()
	defer b.Close()

	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := b.Read(make([]byte, 8)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on an empty ring past its deadline = %d, %v; want 0, %v", n, err, os.ErrDeadlineExceeded)
	}

	if n, err := a.Write(make([]byte, ringCap)); n != ringCap || err != nil {
		t.Fatalf("write of ringCap bytes to an empty ring = %d, %v; want %d, nil", n, err, ringCap)
	}
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := a.Write([]byte("x")); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write to a full ring past its deadline = %d, %v; want 0, %v", n, err, os.ErrDeadlineExceeded)
	}
	a.SetWriteDeadline(time.Time{})
	b.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(b, make([]byte, ringCap)); err != nil {
		t.Fatalf("draining the full ring: %v", err)
	}

	// Whether the read has parked when the deadline moves or not, it
	// ends the same way.
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(make([]byte, 8))
		done <- err
	}()
	b.SetReadDeadline(time.Now().Add(-time.Second))
	if err := <-done; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read whose deadline moved into the past = %v, want %v", err, os.ErrDeadlineExceeded)
	}
	b.SetReadDeadline(time.Time{})
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Read(make([]byte, 8)); n != 1 || err != nil {
		t.Fatalf("read after clearing the deadline = %d, %v; want 1, nil", n, err)
	}
}

// TestFabricClose: a local Close fails the end's own calls — parked
// ones included — with net.ErrClosed, and a second Close says so too;
// the peer reads every byte written before the close and then io.EOF,
// and its writes fail with an error that is not net.ErrClosed, the
// peer's close being no debris of its own teardown.
func TestFabricClose(t *testing.T) {
	a, b := fabricPipe()
	parked := make(chan error, 1)
	go func() {
		_, err := a.Read(make([]byte, 8))
		parked <- err
	}()
	if _, err := a.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := <-parked; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read parked across the local Close = %v, want %v", err, net.ErrClosed)
	}
	if err := a.Close(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second Close = %v, want %v", err, net.ErrClosed)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after the local Close = %v, want %v", err, net.ErrClosed)
	}

	got, err := io.ReadAll(b)
	if err != nil || string(got) != "last words" {
		t.Fatalf("peer read %q, %v; want %q, then io.EOF", got, err, "last words")
	}
	if n, err := b.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("peer read after the drain = %d, %v; want 0, io.EOF", n, err)
	}
	if _, err := b.Write([]byte("x")); err == nil || errors.Is(err, net.ErrClosed) {
		t.Fatalf("write to a closed peer = %v, want an error that is not net.ErrClosed", err)
	}
	b.Close()
}

// TestFabricWriteLargerThanTheRing: one Write of several rings' worth
// reaches a concurrent reader whole and in order, and the ring never
// grows past ringCap on the way.
func TestFabricWriteLargerThanTheRing(t *testing.T) {
	a, b := fabricPipe()
	defer a.Close()
	defer b.Close()
	want := make([]byte, 5*ringCap+7)
	for i := range want {
		want[i] = byte(i * 31)
	}
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(want))
		io.ReadFull(b, buf)
		got <- buf
	}()
	if n, err := a.Write(want); n != len(want) || err != nil {
		t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(want))
	}
	if !bytes.Equal(<-got, want) {
		t.Fatal("the reader got other bytes than were written")
	}
	if size := len(a.(*fabricConn).out.buf); size > ringCap {
		t.Fatalf("the ring grew to %d bytes, cap %d", size, ringCap)
	}
}

// TestFabricSteadyStateAllocatesNothing: once a ring has grown to its
// frames, a round trip — a Write, a Read parked until it lands, the
// echo back — allocates nothing, and neither does renewing a deadline
// before each call: one timer per side, made once and re-armed, not
// one per wait.
func TestFabricSteadyStateAllocatesNothing(t *testing.T) {
	for _, withDeadline := range []bool{false, true} {
		a, b := fabricPipe()
		renew := func(c net.Conn) {
			if withDeadline {
				c.SetDeadline(time.Now().Add(time.Minute))
			}
		}
		echoed := make(chan error, 1)
		go func() { // the echo: park on b, answer what arrives
			buf := make([]byte, 600)
			for {
				renew(b)
				if _, err := io.ReadFull(b, buf); err != nil {
					echoed <- err
					return
				}
				if _, err := b.Write(buf); err != nil {
					echoed <- err
					return
				}
			}
		}()
		msg, buf := make([]byte, 600), make([]byte, 600)
		round := func() {
			renew(a)
			if _, err := a.Write(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		round() // grows both rings and, with a deadline, makes the timers
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("deadline %v: a steady-state round trip allocated %.1f times, want 0", withDeadline, got)
		}
		a.Close()
		if err := <-echoed; err != io.EOF {
			t.Fatalf("echo ended with %v, want io.EOF", err)
		}
		b.Close()
	}
}

package tcp

// Staged teardowns: each test drives a failing mesh through one
// interleaving that a free-running cluster hits only now and then, by
// holding a write mid-frame on a full in-memory ring or by closing a
// machine's connections in a chosen order, and requires the blame a
// bystander reads to name the machine that actually failed.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"

	"kmachine/internal/testutil"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// readBlame reads the frames waiting on ic up to the first blame frame
// and returns the machine it names, or fails t — a stream that ends
// first left its reader nothing to go on but an EOF.
func readBlame(t *testing.T, what string, ic *inConn) transport.MachineID {
	t.Helper()
	for {
		frame, err := wire.ReadFrameInto(ic.r, nil)
		if err != nil {
			t.Fatalf("%s: stream ended (%v) before any blame frame", what, err)
		}
		if len(frame) > 0 && frame[0] == wire.BatchAbort {
			_, suspect, err := wire.DecodeAbort(frame)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return suspect
		}
	}
}

// TestBlameWaitsForTheWriteInFlight: a bystander fails over a dead
// machine while its batch to a peer is half on the wire. The blame must
// follow that batch, not be dropped because the connection's write lock
// is held — else the peer reads the bystander's EOF with no word of the
// victim and blames the bystander.
func TestBlameWaitsForTheWriteInFlight(t *testing.T) {
	const k, bystander, witness, victim, peer = 4, 0, 1, 2, 3
	base := runtime.NumGoroutine()
	ms := fabricMesh(t, k)
	defer func() {
		for _, m := range ms {
			m.Close()
		}
		testutil.NoLeakedGoroutines(t, base)
	}()
	e, err := Attach[[]byte](ms[bystander], blobCodec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BeginSuperstep(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// The batch to peer outgrows its ring and peer's read buffer, so its
	// write holds the lock until peer reads. Peers are written from
	// (id+step) mod k: the witness and the victim are done by the time
	// it starts.
	finished := make(chan error, 1)
	go func() {
		big := []transport.Envelope[[]byte]{{From: bystander, To: peer, Words: 1, Msg: make([]byte, 4*(ringCap+readBufSize))}}
		_, _, err := e.FinishSuperstep(0, byDest(k, big), nil)
		finished <- err
	}()
	if _, err := ms[peer].in[bystander].r.Peek(1); err != nil {
		t.Fatal(err)
	}

	ms[victim].Close() // the bystander's reader meets its EOF and fails
	if got := readBlame(t, "witness", ms[witness].in[bystander]); got != victim {
		t.Fatalf("witness told machine %d failed, want %d", got, victim)
	}
	// The blame was cast; now let the write in flight finish.
	if got := readBlame(t, "peer", ms[peer].in[bystander]); got != victim {
		t.Fatalf("peer told machine %d failed, want %d", got, victim)
	}
	var me *transport.MachineError
	if err := <-finished; !errors.As(err, &me) || me.Machine != victim {
		t.Fatalf("bystander's superstep ended with %v, want a MachineError naming machine %d", err, victim)
	}
}

// TestClosingMachineCastsNoBlame: a machine whose owner closes it
// closes its connections one at a time. A survivor that reads the EOF
// on the first fails and closes in turn, so the closing machine's
// reader of that survivor meets the survivor's EOF while its
// connection to a third machine is still open. That EOF is debris of
// its own close: the closing machine must not tell the third machine
// that the survivor failed.
func TestClosingMachineCastsNoBlame(t *testing.T) {
	const k, survivor, witness, victim = 3, 0, 1, 2
	base := runtime.NumGoroutine()
	ms := fabricMesh(t, k)
	defer func() {
		for _, m := range ms {
			m.Close()
		}
		testutil.NoLeakedGoroutines(t, base)
	}()
	es, err := Attach[testMsg](ms[survivor], testCodec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Attach[testMsg](ms[victim], testCodec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range []*Endpoint[testMsg]{es, ev} {
		if err := e.BeginSuperstep(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}

	// The victim's Close, staged: the endpoint is marked closed and its
	// readers retired (Detach is exactly that first half), then the
	// connections close — the one to the survivor first.
	ev.Detach()
	ms[victim].out[survivor].c.Close()
	es.workWG.Wait() // the survivor blamed the victim and closed
	ev.workWG.Wait() // the victim's reader met the survivor's EOF
	ms[victim].Close()

	if got := readBlame(t, "witness from the survivor", ms[witness].in[survivor]); got != victim {
		t.Fatalf("the survivor told the witness machine %d failed, want %d", got, victim)
	}
	if frame, err := wire.ReadFrameInto(ms[witness].in[victim].r, nil); err != io.EOF {
		t.Fatalf("the closing victim sent the witness %q (%v), want nothing before its EOF", frame, err)
	}
	var me *transport.MachineError
	if _, _, err := es.FinishSuperstep(0, nil, nil); !errors.As(err, &me) || me.Machine != victim {
		t.Fatalf("survivor's superstep ended with %v, want a MachineError naming machine %d", err, victim)
	}
}

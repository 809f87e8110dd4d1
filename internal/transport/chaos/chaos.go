// Package chaos is the failure-injection transport: it wraps any
// transport.Transport and makes partial failure deterministic. The
// k-machine model (§1.1 of the paper) assumes lock-step synchronous
// rounds; real substrates inherit none of that safety, and the only way
// to TEST the runtime's failure handling — deadlines, cancellation,
// abort propagation, goroutine-clean teardown — is to make a machine
// die at a chosen superstep, every run. Three fault shapes cover the
// paths the runtime must survive:
//
//   - KillAt: the victim "dies" at a superstep — the inner transport is
//     torn down and Finish returns a machine-attributed ErrKilled
//     (works on any substrate, including the loopback, which has no
//     real failure mode of its own);
//   - DropConnAt: a substrate hook severs the victim's real resources
//     (e.g. tcp.Transport.SeverMachine closes its listener and every
//     connection), and the inner transport's OWN failure path then runs
//     — deadlines fire, closes cascade — with the resulting error
//     re-attributed to the victim;
//   - DelayAt: added latency before a superstep's barrier, bounded by
//     the caller's context, for exercising per-superstep deadlines
//     without a wall-clock-sized test.
//
// Whatever the fault, the error that reaches the caller wraps a
// *transport.MachineError naming the victim and the superstep, so
// registry-wide tests can assert attribution uniformly across
// substrates.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

// ErrKilled is the cause inside the MachineError a KillAt fault
// produces; detect it with errors.Is.
var ErrKilled = errors.New("chaos: machine killed by fault injection")

type faultKind int

const (
	faultKill faultKind = iota
	faultDropConn
	faultDelay
)

// Fault is one injected failure; build them with KillAt, DropConnAt,
// and DelayAt.
type Fault struct {
	kind   faultKind
	victim transport.MachineID
	step   int
	delay  time.Duration
	sever  func()
}

// KillAt makes the victim machine die at the given superstep: the
// wrapped transport is closed and Finish returns a MachineError
// wrapping ErrKilled. Substrate-independent.
func KillAt(victim transport.MachineID, step int) Fault {
	return Fault{kind: faultKill, victim: victim, step: step}
}

// DropConnAt severs the victim's real substrate resources at the given
// superstep by calling sever (e.g. a closure over
// tcp.Transport.SeverMachine), then lets the inner transport's own
// failure machinery produce the error; chaos re-attributes it to the
// victim if the substrate could not.
func DropConnAt(victim transport.MachineID, step int, sever func()) Fault {
	return Fault{kind: faultDropConn, victim: victim, step: step, sever: sever}
}

// DelayAt inserts d of latency before the barrier of the given
// superstep (step < 0 means every superstep). The sleep respects the
// superstep context: an expiring per-superstep deadline cuts it short
// and surfaces as a MachineError attributed to machine -1 (no specific
// victim — the cluster, not a machine, was slow).
func DelayAt(step int, d time.Duration) Fault {
	return Fault{kind: faultDelay, step: step, victim: -1, delay: d}
}

// Transport wraps an inner transport with injected faults. It is not
// safe for concurrent Finish calls, matching the Transport contract.
type Transport[M any] struct {
	inner  transport.Transport[M]
	faults []Fault
	killed bool
	victim transport.MachineID
}

// Wrap decorates inner with the given faults.
func Wrap[M any](inner transport.Transport[M], faults ...Fault) *Transport[M] {
	return &Transport[M]{inner: inner, faults: faults, victim: -1}
}

// Begin forwards to the inner transport. Faults stay attached to Finish,
// the superstep's barrier — one injection point, one code path.
func (t *Transport[M]) Begin(ctx context.Context, step int) error {
	return t.inner.Begin(ctx, step)
}

// SendBatch forwards an eagerly-emitted batch to the inner transport.
func (t *Transport[M]) SendBatch(from, to transport.MachineID, batch []transport.Envelope[M]) error {
	return t.inner.SendBatch(from, to, batch)
}

// Finish applies due faults, then forwards to the inner transport. A
// KillAt victim dies here even if its batches were already emitted: the
// run aborts with the attributed error before any inbox is assembled,
// exactly like a machine crashing mid-superstep.
func (t *Transport[M]) Finish(ctx context.Context, step int, rest [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	for _, f := range t.faults {
		switch f.kind {
		case faultDelay:
			if f.step >= 0 && f.step != step {
				continue
			}
			select {
			case <-time.After(f.delay):
			case <-ctx.Done():
				return nil, &transport.MachineError{Machine: f.victim, Superstep: step,
					Err: fmt.Errorf("chaos: delayed superstep overran its deadline: %w", ctx.Err())}
			}
		case faultKill:
			if f.step != step || t.killed {
				continue
			}
			t.killed, t.victim = true, f.victim
			t.inner.Close()
			return nil, &transport.MachineError{Machine: f.victim, Superstep: step, Err: ErrKilled}
		case faultDropConn:
			if f.step != step || t.killed {
				continue
			}
			t.killed, t.victim = true, f.victim
			f.sever()
			// Fall through to the inner Finish: the severed resources
			// make the substrate's real failure path fire.
		}
	}
	in, err := t.inner.Finish(ctx, step, rest)
	if err != nil && t.killed {
		// Guarantee attribution: whatever shape the substrate's failure
		// took (a victim endpoint reporting its own dead sockets, a
		// generic close error), the caller learns who chaos killed.
		var me *transport.MachineError
		if !errors.As(err, &me) || me.Machine != t.victim {
			err = &transport.MachineError{Machine: t.victim, Superstep: step, Err: err}
		}
	}
	return in, err
}

// Exchange implements transport.Transport: Begin, then Finish.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if err := t.Begin(ctx, step); err != nil {
		return nil, err
	}
	return t.Finish(ctx, step, outs)
}

// Close closes the inner transport.
func (t *Transport[M]) Close() error { return t.inner.Close() }

// WireStats forwards the inner transport's physical-layer counters, so
// wrapping a substrate in faults does not hide its bytes-on-wire; a
// meterless inner transport (the loopback) reports zeros.
func (t *Transport[M]) WireStats() transport.WireStats {
	if m, ok := t.inner.(transport.WireMeter); ok {
		return m.WireStats()
	}
	return transport.WireStats{}
}

// SetRecorder forwards the telemetry recorder to the inner transport
// when it records frame spans (transport.TraceSink), so wrapping a
// substrate in faults does not blind the tracer; a sink-less inner
// transport makes this a no-op.
func (t *Transport[M]) SetRecorder(r obs.Recorder) {
	if s, ok := t.inner.(transport.TraceSink); ok {
		s.SetRecorder(r)
	}
}

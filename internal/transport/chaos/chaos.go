// Package chaos is the failure-injection transport: it wraps any
// transport.Transport and makes partial failure deterministic. The
// k-machine model (§1.1 of the paper) assumes lock-step synchronous
// rounds; real substrates inherit none of that safety, and the only way
// to TEST the runtime's failure handling — deadlines, cancellation,
// abort propagation, goroutine-clean teardown — is to make a machine
// die at a chosen superstep, every run. Two fault shapes cover the
// paths the runtime must survive:
//
//   - KillAt: the victim "dies" at a superstep — the inner transport is
//     torn down and Finish returns a machine-attributed ErrKilled (the
//     loopback has no real failure mode of its own);
//   - DelayAt: added latency before a superstep's barrier, bounded by
//     the caller's context, for exercising per-superstep deadlines
//     without a wall-clock-sized test.
//
// Either way the error that reaches the caller wraps a
// *transport.MachineError naming the victim and the superstep, as the
// socket link's own failures do, so tests can assert attribution
// uniformly across links.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kmachine/internal/transport"
)

// ErrKilled is the cause inside the MachineError a KillAt fault
// produces; detect it with errors.Is.
var ErrKilled = errors.New("chaos: machine killed by fault injection")

type faultKind int

const (
	faultKill faultKind = iota
	faultDelay
)

// Fault is one injected failure; build them with KillAt and DelayAt.
type Fault struct {
	kind   faultKind
	victim transport.MachineID
	step   int
	delay  time.Duration
}

// KillAt makes the victim machine die at the given superstep: the
// wrapped transport is closed and Finish returns a MachineError
// wrapping ErrKilled. Substrate-independent.
func KillAt(victim transport.MachineID, step int) Fault {
	return Fault{kind: faultKill, victim: victim, step: step}
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
}

// Wrap decorates inner with the given faults.
func Wrap[M any](inner transport.Transport[M], faults ...Fault) *Transport[M] {
	return &Transport[M]{inner: inner, faults: faults}
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
			t.killed = true
			t.inner.Close()
			return nil, &transport.MachineError{Machine: f.victim, Superstep: step, Err: ErrKilled}
		}
	}
	return t.inner.Finish(ctx, step, rest)
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

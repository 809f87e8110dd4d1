package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// ioGuard applies ctx to the endpoint's blocking socket I/O. It returns
// the connection deadline to install before each read/write (zero when
// ctx has none, which clears any deadline left by a previous superstep)
// and a release function — nil for an uncancellable ctx, so the
// happy-path superstep allocates neither the AfterFunc nor a closure —
// that the operation must call before returning when non-nil.
// While the operation is in flight, cancellation of ctx closes the
// whole endpoint: Close is the only way to unblock conns that are
// already parked in a read, and a canceled job is over anyway — its
// mesh is poisoned and must be rebuilt before the next job.
func (e *Endpoint[M]) ioGuard(ctx context.Context) (deadline time.Time, release func() bool) {
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	if ctx.Done() == nil {
		return deadline, nil
	}
	return deadline, context.AfterFunc(ctx, func() {
		// Only explicit cancellation closes here: deadline expiry is
		// already enforced by the connection deadlines installed above,
		// and letting them fire keeps the error deterministically
		// os.ErrDeadlineExceeded instead of racing it against a close.
		// ctx.Err() (not Cause) is what distinguishes the two — it is
		// context.Canceled for every cancellation, including one with a
		// custom cause via WithCancelCause.
		if errors.Is(ctx.Err(), context.Canceled) {
			e.Close()
		}
	})
}

// assembleInbox builds the superstep's inbox in sender-ID order in the
// double-buffered storage: the previous superstep's inbox (the other
// generation) is still readable by the caller per the ownership rule.
// The storage is sized once from the counts the readers checked, then
// every peer's batch is decoded straight into its slot, self-addressed
// envelopes at position e.id. A sound header over a corrupt body fails
// the endpoint here, blamed on the sender like any reader failure.
// Call only after the pipeline generation drained error-free.
func (e *Endpoint[M]) assembleInbox(step int) (inbox []transport.Envelope[M], err error) {
	total := len(e.perDest[e.id])
	for _, n := range e.rxCount { // rxCount[e.id] stays zero
		total += n
	}
	inbox = e.inboxes[e.gen][:0]
	if cap(inbox) < total {
		inbox = make([]transport.Envelope[M], 0, total)
	}
	for s := 0; s < e.k; s++ {
		if s == e.id {
			inbox = append(inbox, e.perDest[s]...)
			continue
		}
		t0 := e.now()
		_, inbox, err = wire.AppendDecodedBatch(inbox, e.rxBatch[s], e.codec, transport.MachineID(s), transport.MachineID(e.id))
		e.span(t0, obs.PhaseFrameDecode, s, step, 0)
		if err != nil {
			err = e.attrib(s, step, fmt.Errorf("tcp: machine %d decode from %d: %w", e.id, s, err))
			e.fail(err)
			return nil, err
		}
	}
	e.inboxes[e.gen] = inbox
	e.gen ^= 1
	return inbox, nil
}

// BeginSuperstep opens superstep `step` on this endpoint: the
// per-superstep failure state is reset and every reader worker is
// released immediately, so incoming batch frames are received and
// header-checked as peers produce them — during this machine's own
// compute — instead of waiting for the finish barrier. Signal order
// rotates with the superstep: machine i starts its sweep at peer
// (i+step) mod k, so the k machines do not all hammer peer 0's sockets
// first every superstep.
//
// ctx bounds the whole superstep: its deadline is installed on every
// connection before I/O, so a dead or wedged peer surfaces as a
// *transport.MachineError (wrapping os.ErrDeadlineExceeded) within the
// deadline, and cancellation tears the endpoint down, unblocking every
// parked read. After any error the endpoint is closed and unusable.
func (e *Endpoint[M]) BeginSuperstep(ctx context.Context, step int) error {
	dl, release := e.ioGuard(ctx)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		if release != nil {
			release()
		}
		return fmt.Errorf("tcp: machine %d begin superstep %d on closed endpoint: %w", e.id, step, net.ErrClosed)
	}
	if e.strOn {
		e.mu.Unlock()
		if release != nil {
			release()
		}
		return fmt.Errorf("tcp: machine %d begin superstep %d with superstep %d still open", e.id, step, e.strStep)
	}
	e.cause, e.shrapnel, e.sendErr = nil, nil, nil
	clear(e.strEmitted)
	clear(e.strQueued)
	e.strOn, e.strStep, e.strDl, e.strRelease = true, step, dl, release
	job := pipeJob{step: step, dl: dl}
	e.workWG.Add(e.k - 1)
	for o := 0; o < e.k; o++ {
		if j := (e.id + step + o) % e.k; j != e.id {
			e.readerCh[j] <- job
		}
	}
	e.mu.Unlock()
	return nil
}

// streamInlineMax is the batch size at or below which StreamBatch
// writes the frame on the calling goroutine instead of waking the
// peer's parked writer worker: for a couple of envelopes the encode is
// a handful of stores and the wakeup costs more than the write (the
// same economics as FinishSuperstep's tiny-remainder path).
const streamInlineMax = 2

// StreamBatch hands peer `to`'s finished batch to its parked writer
// worker right now — mid-compute — which encodes and ships it while the
// superstep's remaining work continues. Tiny batches (and every batch
// on a single-core process) are instead written inline on the calling
// goroutine — still mid-compute, so the wire is busy during the
// superstep either way; what varies is only who pays for the encode.
// The batch slice stays readable by the endpoint until FinishSuperstep
// returns (the Transport ownership rule); envelopes arrive pre-validated
// and From-stamped from core. At most one batch per peer per superstep.
func (e *Endpoint[M]) StreamBatch(to transport.MachineID, batch []transport.Envelope[M]) error {
	e.mu.Lock()
	if e.closed {
		// Prefer the attributed failure that closed us (a reader's
		// verdict on a dead peer) over an anonymous "closed" — this is
		// what the emitter surfaces to the run.
		err := e.cause
		if err == nil {
			err = e.shrapnel
		}
		e.mu.Unlock()
		if err != nil {
			return err
		}
		return fmt.Errorf("tcp: machine %d stream batch on closed endpoint: %w", e.id, net.ErrClosed)
	}
	if !e.strOn {
		e.mu.Unlock()
		return fmt.Errorf("tcp: machine %d StreamBatch outside an open superstep", e.id)
	}
	if int(to) < 0 || int(to) >= e.k || int(to) == e.id {
		e.mu.Unlock()
		return fmt.Errorf("tcp: machine %d cannot stream batch to machine %d", e.id, to)
	}
	if e.strEmitted[to] {
		e.mu.Unlock()
		return fmt.Errorf("tcp: machine %d streamed two batches to machine %d in superstep %d", e.id, to, e.strStep)
	}
	e.strEmitted[to] = true
	e.txSrc[to] = batch
	job := pipeJob{step: e.strStep, dl: e.strDl, batch: true}
	if e.serialWriters || len(batch) <= streamInlineMax {
		// Inline write, off the mutex: the write may block on a full
		// socket buffer, and holding mu there would stall a concurrent
		// Close. txSrc[to] is safe to read unlocked — at most one batch
		// per peer per superstep means no other goroutine touches it.
		e.mu.Unlock()
		e.runWriter(int(to), job)
		// A failure that closed the endpoint — an encode defect, a
		// reader's verdict — recorded its cause; surface it now so the
		// emitter aborts the run immediately instead of discovering the
		// corpse at FinishSuperstep. (A failed write waits for the
		// finish: see sendFailed.)
		e.mu.Lock()
		err := e.cause
		if err == nil {
			err = e.shrapnel
		}
		e.mu.Unlock()
		return err
	}
	e.strQueued[to] = true
	e.workWG.Add(1)
	e.writerCh[to] <- job
	e.mu.Unlock()
	return nil
}

// finishGuard disarms the cancellation guard BeginSuperstep armed.
func (e *Endpoint[M]) finishGuard() {
	if r := e.strRelease; r != nil {
		e.strRelease = nil
		r()
	}
}

// FinishSuperstep closes superstep `step`: it ships `out` — the
// envelopes NOT streamed eagerly (self-addressed ones included, which
// never touch a socket; a peer that already got a streamed batch must
// not reappear here) — on the remaining writer workers, one batch frame
// per directed pair, empty batches included, each followed by one frame
// of `row`, this machine's account of the superstep. A rest batch and
// its row leave in one flush; a peer whose batch was streamed gets the
// row alone, queued behind the batch on its writer when the batch went
// there. It then waits for the
// whole pipeline generation (eager readers, streamed writers, rest
// writers) to drain and decodes the inbox in sender-ID order,
// self-addressed envelopes at position e.id, exactly like the loopback
// transport. rows[j] is peer j's row as received (rows[e.id] is nil),
// valid until the next BeginSuperstep. It is the superstep's barrier,
// bounded by the deadline and cancellation guard BeginSuperstep armed.
func (e *Endpoint[M]) FinishSuperstep(step int, out []transport.Envelope[M], row []byte) (inbox []transport.Envelope[M], rows [][]byte, err error) {
	perDest := e.perDest
	for j := range perDest {
		perDest[j] = perDest[j][:0]
	}
	for _, env := range out {
		if env.To < 0 || int(env.To) >= e.k {
			e.finishGuard()
			e.Close() // peers are waiting on our batches; unblock them
			return nil, nil, fmt.Errorf("tcp: machine %d envelope to invalid machine %d", e.id, env.To)
		}
		perDest[env.To] = append(perDest[env.To], env)
	}

	e.mu.Lock()
	if !e.strOn || e.strStep != step {
		open, openStep := e.strOn, e.strStep
		e.mu.Unlock()
		e.finishGuard()
		e.Close()
		return nil, nil, fmt.Errorf("tcp: machine %d finish superstep %d without matching begin (open=%v step=%d)", e.id, step, open, openStep)
	}
	e.strOn = false
	if e.closed {
		// A mid-compute failure (a reader's verdict, a peer's blame
		// frame, a StreamBatch hitting dead sockets) already tore the
		// endpoint down. The eager jobs drain against the closed conns;
		// report the recorded cause, never an inbox.
		e.mu.Unlock()
		e.workWG.Wait()
		e.finishGuard()
		e.mu.Lock()
		err := e.cause
		if err == nil {
			err = e.shrapnel
		}
		e.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("tcp: machine %d finish superstep %d on closed endpoint: %w", e.id, step, net.ErrClosed)
		}
		return nil, nil, err
	}
	rest := 0
	for j := 0; j < e.k; j++ {
		if j == e.id {
			continue
		}
		if e.strEmitted[j] {
			if len(perDest[j]) > 0 {
				e.mu.Unlock()
				e.finishGuard()
				e.Close()
				return nil, nil, fmt.Errorf("tcp: machine %d has rest envelopes for machine %d after streaming a batch to it in superstep %d", e.id, j, step)
			}
			continue
		}
		e.txSrc[j] = perDest[j]
		rest += len(perDest[j])
	}
	e.txRow = row
	// Tiny remainders (the common case when the machines streamed their
	// batches eagerly) skip the writer wakeups: when the rest is at most
	// ~2 envelopes per peer, encoding is trivial and the cost of
	// signalling parked goroutines dominates shipping few-byte frames
	// (the k=16/batch=1 regression of the parallel pipeline). Write them
	// serially on this goroutine instead — each connection's buffered
	// writer still coalesces batch and row into one flush/syscall. A
	// GOMAXPROCS=1 process takes this path for every superstep: with one
	// core the parallel writers can't overlap anyway, so the wakeups are
	// all tax. Only a row whose batch is still on its peer's writer goes
	// there regardless, to stay behind the batch on the stream.
	// strEmitted/strQueued are stable here — StreamBatch only runs while
	// the superstep computes, which happens-before FinishSuperstep.
	inline := e.serialWriters || rest <= 2*e.k
	for o := 0; o < e.k; o++ {
		j := (e.id + step + o) % e.k
		if j == e.id || (inline && !e.strQueued[j]) {
			continue
		}
		e.workWG.Add(1)
		e.writerCh[j] <- pipeJob{step: step, dl: e.strDl, batch: !e.strEmitted[j], row: true}
	}
	e.mu.Unlock()
	if inline {
		for o := 0; o < e.k; o++ {
			j := (e.id + step + o) % e.k
			if j == e.id || e.strQueued[j] {
				continue
			}
			e.runWriter(j, pipeJob{step: step, dl: e.strDl, batch: !e.strEmitted[j], row: true})
		}
	}

	e.workWG.Wait()
	e.finishGuard()
	// Streamed batch slices and the row are the caller's; drop the
	// references now that their writers are done, honouring the "must
	// not retain" ownership rule.
	clear(e.txSrc)
	e.txRow = nil
	// Report the error that diagnoses the failure, not the teardown:
	// recordErr kept the first genuine cause (a peer's FIN, a reset, an
	// expired deadline) apart from the net.ErrClosed shrapnel of our own
	// cascade close, so the genuine cause — which names the actual
	// culprit — wins whenever one exists. The workWG barrier above is
	// the happens-before edge that makes the plain reads safe.
	if err := e.cause; err != nil {
		return nil, nil, err
	}
	if err := e.shrapnel; err != nil {
		return nil, nil, err
	}
	if j := e.sendPeer; e.sendErr != nil {
		// Every worker is parked, so read what j sent after its frames of
		// this superstep: a blame frame or an EOF fails the endpoint with
		// what it says; a frame of j's is no excuse for the write.
		if e.in[j].c.SetReadDeadline(time.Now().Add(blameWriteTimeout)) != nil {
			e.fail(e.sendErr)
		} else if _, ok := e.readFrame(j, step, &e.frame[j]); ok {
			e.fail(e.sendErr)
		}
		if e.cause != nil {
			return nil, nil, e.cause
		}
		return nil, nil, e.shrapnel
	}
	if inbox, err = e.assembleInbox(step); err != nil {
		return nil, nil, err
	}
	return inbox, e.rxRow, nil
}

// Reject fails the endpoint over a row peer sent in superstep step that
// the caller found unsound, exactly as a reader fails it over a bad
// batch: the returned *transport.MachineError names the peer (and the
// job), the peers are told whom this machine blames, and the endpoint
// is closed.
func (e *Endpoint[M]) Reject(peer, step int, err error) error {
	err = e.attrib(peer, step, err)
	e.fail(err)
	return err
}

// retireWorkers closes every pipeline signal channel, run at most once
// (via closeOnce) by Detach or Close. No job send can race it: the
// caller set closed under mu first, jobs are sent only while holding
// mu with closed unset, and buffered jobs survive a channel close, so
// in-flight supersteps still drain.
func (e *Endpoint[M]) retireWorkers() {
	for _, ch := range e.writerCh {
		if ch != nil {
			close(ch)
		}
	}
	for _, ch := range e.readerCh {
		if ch != nil {
			close(ch)
		}
	}
}

// Detach retires the endpoint's pipeline workers and ends its use of
// the mesh WITHOUT closing any connection — the standing fabric (and
// any bytes buffered on it) stays intact for the next job's endpoint.
// Valid only at a quiescent point: every machine has finished the same
// last superstep, so every frame shipped on the mesh has been read — the
// node runtime detaches only after all k machines returned. A failed
// endpoint must use Close instead; after Detach the endpoint itself is
// dead either way.
func (e *Endpoint[M]) Detach() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.closeOnce.Do(e.retireWorkers)
}

// Close retires the pipeline workers and tears down the mesh — the
// listener and every connection — unblocking all pending I/O. It is
// idempotent — concurrent and repeated calls are safe and return the
// first call's result — which is what lets the error-cascade teardown,
// context cancellation (ioGuard), and the caller's own deferred Close
// coexist. Closing a job-attached endpoint poisons the standing mesh
// deliberately: a failure is only survivable cluster-wide by closing
// the connections every peer is parked on.
func (e *Endpoint[M]) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.closeOnce.Do(e.retireWorkers)
	return e.Mesh.Close()
}

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

// assembleInbox builds the superstep's inbox in sender-ID order over
// the previous one's storage, which its Step no longer reads. The
// storage is sized once from self's length and the counts the readers
// checked, then every peer's batch is decoded straight into its slot
// and self, the self-addressed batch, is copied into position e.id. A
// sound header over a corrupt body fails the endpoint here, blamed on
// the sender like any reader failure. Call only after the readers
// drained error-free.
func (e *Endpoint[M]) assembleInbox(step int, self []transport.Envelope[M]) (inbox []transport.Envelope[M], err error) {
	total := len(self) // rxCount[e.id] stays 0
	for _, n := range e.rxCount {
		total += n
	}
	inbox = e.inbox[:0]
	if cap(inbox) < total {
		inbox = make([]transport.Envelope[M], 0, total)
	}
	for s := 0; s < e.k; s++ {
		if s == e.id {
			inbox = append(inbox, self...)
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
	e.inbox = inbox
	return inbox, nil
}

// BeginSuperstep opens superstep `step` on this endpoint: the
// per-superstep failure state is reset and every reader is released
// immediately, so incoming batch frames are received and header-checked
// as peers produce them — during this machine's own compute — instead
// of waiting for the finish barrier — and, released before any Step
// runs, they keep every peer's writes deadlock-free (see the package
// doc). Signal order rotates with the superstep: machine i starts its
// sweep at peer (i+step) mod k, so the k machines do not all hammer
// peer 0's sockets first every superstep.
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

// finishGuard disarms the cancellation guard BeginSuperstep armed.
func (e *Endpoint[M]) finishGuard() {
	if r := e.strRelease; r != nil {
		e.strRelease = nil
		r()
	}
}

// FinishSuperstep closes superstep `step`: it ships this machine's
// envelopes — batches[j], everything it sends machine j (batches may be
// nil); the self-addressed batches[e.id] never touches a socket — one
// batch frame per directed pair, empty batches included, each carrying
// `row`, this machine's account of the superstep. Every peer's frame
// leaves in one vectored write on the calling goroutine, peers visited
// from (id+step) mod k. It then waits for the readers to drain and
// decodes the inbox in sender-ID order, batches[e.id] at position e.id,
// exactly like the loopback transport, into the storage of the previous
// inbox, which no batch may alias. rows[j] is peer j's row as received
// (rows[e.id] is nil), valid until the next BeginSuperstep. It is the
// superstep's barrier, bounded by the deadline and cancellation guard
// BeginSuperstep armed.
func (e *Endpoint[M]) FinishSuperstep(step int, batches [][]transport.Envelope[M], row []byte) (inbox []transport.Envelope[M], rows [][]byte, err error) {
	e.mu.Lock()
	if !e.strOn {
		// Nothing is open, so nothing is in flight to unblock: refuse and
		// leave the endpoint as it is, as BeginSuperstep refuses a second
		// open superstep.
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("tcp: machine %d finish superstep %d without a matching begin", e.id, step)
	}
	if e.strStep != step {
		openStep := e.strStep
		e.mu.Unlock()
		e.finishGuard()
		e.Close()
		return nil, nil, fmt.Errorf("tcp: machine %d finish superstep %d without a matching begin (superstep %d open)", e.id, step, openStep)
	}
	e.strOn = false
	if e.closed {
		// A mid-compute failure (a reader's verdict, a peer's blame
		// frame) already tore the endpoint down. The readers drain
		// against the closed conns; report the recorded cause, never an
		// inbox.
		e.mu.Unlock()
		e.workWG.Wait()
		e.finishGuard()
		err := e.failure()
		if err == nil {
			err = fmt.Errorf("tcp: machine %d finish superstep %d on closed endpoint: %w", e.id, step, net.ErrClosed)
		}
		return nil, nil, err
	}
	e.mu.Unlock()
	if batches == nil {
		batches = make([][]transport.Envelope[M], e.k) // an empty frame to every peer
	}
	for o := 0; o < e.k; o++ {
		if j := (e.id + step + o) % e.k; j != e.id {
			e.runWriter(j, step, e.strDl, batches[j], row)
		}
	}

	e.workWG.Wait()
	e.finishGuard()
	// Report the error that diagnoses the failure, not the teardown:
	// recordErr kept the first genuine cause (a peer's FIN, a reset, an
	// expired deadline) apart from the net.ErrClosed shrapnel of our own
	// cascade close.
	if err := e.failure(); err != nil {
		return nil, nil, err
	}
	if j := e.sendPeer; e.sendErr != nil {
		// Every reader is parked, so read what j sent after its frame of
		// this superstep: a blame frame or an EOF fails the endpoint with
		// what it says; a frame of j's is no excuse for the write.
		if e.in[j].c.SetReadDeadline(time.Now().Add(blameWriteTimeout)) != nil {
			e.fail(e.sendErr)
		} else if _, ok := e.readFrame(j, step, &e.in[j].frame); ok {
			e.fail(e.sendErr)
		}
		return nil, nil, e.failure()
	}
	if inbox, err = e.assembleInbox(step, batches[e.id]); err != nil {
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

// retireWorkers closes every reader's signal channel, run at most once
// (via closeOnce) by Detach or Close. No job send can race it: the
// caller set closed under mu first, jobs are sent only while holding
// mu with closed unset, and buffered jobs survive a channel close, so
// in-flight supersteps still drain.
func (e *Endpoint[M]) retireWorkers() {
	for _, ch := range e.readerCh {
		if ch != nil {
			close(ch)
		}
	}
}

// Detach retires the endpoint's readers and ends its use of
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

// Close retires the readers and tears down the mesh — the
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

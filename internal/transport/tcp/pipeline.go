package tcp

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// startPipeline spawns the persistent readers, one per data peer.
func (e *Endpoint[M]) startPipeline() {
	e.readerCh = make([]chan pipeJob, e.k)
	for j := 0; j < e.k; j++ {
		if j != e.id {
			e.readerCh[j] = make(chan pipeJob, 1)
			go e.readLoop(j)
		}
	}
}

// readLoop is the body of peer j's persistent reader: run one job per
// signal, park in between, exit when the signal channel closes. The
// park is a bare channel receive — no select — because the channel
// doubles as the quit signal: every job send happens under mu with
// closed unset, so no send can follow the close, and a job already
// buffered when Close fires is still delivered before the closed-channel
// zero value, so the sender's WaitGroup always drains (the job's I/O
// fails fast on the closed connections).
func (e *Endpoint[M]) readLoop(j int) {
	for job := range e.readerCh[j] {
		e.runReader(j, job)
		e.workWG.Done()
	}
}

// recordErr files a data-path failure as the cause or the shrapnel:
// the debris of our own teardown — net.ErrClosed, or any error once the
// endpoint is closed, such as a peer's EOF in reply to our close — is
// kept apart from genuine causes, and within each class the first
// arrival wins. Returns whether err was installed as the genuine cause.
func (e *Endpoint[M]) recordErr(err error) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || errors.Is(err, net.ErrClosed) {
		if e.shrapnel == nil {
			e.shrapnel = err
		}
		return false
	}
	if e.cause == nil {
		e.cause = err
		return true
	}
	return false
}

// failure is what recordErr kept: the genuine cause when there is one,
// which names the actual culprit, else the shrapnel; nil before any.
func (e *Endpoint[M]) failure() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cause != nil {
		return e.cause
	}
	return e.shrapnel
}

// blameWriteTimeout bounds the best-effort blame broadcast of a failing
// endpoint: the frames are a handful of bytes, so the deadline only
// matters against a peer whose receive buffer is completely wedged —
// and teardown must not wait longer than this on such a peer.
const blameWriteTimeout = time.Second

// fail records a data-path failure and tears the endpoint down
// immediately: the peers (and our own parked readers) are blocked in
// reads bounded only by the superstep deadline — which may be absent —
// and closing the connections is what converts a wedged cluster into an
// error cascade right away; each endpoint's failed read closes it in
// turn. Without this a single broken connection would stall every
// machine until the deadline (or forever without one).
//
// Before closing, the first genuine failure is broadcast as a blame
// frame on every data connection. This is what keeps attribution
// correct across the cascade the close triggers: a peer reading our
// connection finds "machine v failed" ahead of the FIN, instead of a
// bare EOF it would have to attribute to US. Without it, a machine
// whose exchange starts after the cascade has begun sees
// indistinguishable EOFs from the victim and from healthy-but-closing
// peers, and the persistent pipeline reacts fast enough to make that
// race real (the slow per-superstep goroutine spawns of the previous
// engine masked it).
func (e *Endpoint[M]) fail(err error) {
	if e.recordErr(err) {
		e.castBlame(err)
	}
	e.Close()
}

// castBlame ships a best-effort blame frame to every data peer before
// the endpoint closes. Only machine-attributed causes are broadcast;
// the suspect itself is skipped (it is the one machine that cannot act
// on the news). A connection with a write in flight gets its blame
// behind that write — skipped, its peer would read a bare EOF and blame
// us — but a wedged write delays the Close by at most blameWriteTimeout.
func (e *Endpoint[M]) castBlame(cause error) {
	var me *transport.MachineError
	if !errors.As(cause, &me) || me.Machine < 0 {
		return
	}
	payload := wire.AppendAbort(nil, me.Superstep, me.Machine)
	dl := time.Now().Add(blameWriteTimeout)
	expired := make(chan struct{})
	defer time.AfterFunc(blameWriteTimeout, func() { close(expired) }).Stop()
	for j := 0; j < e.k; j++ {
		if j == e.id || j == int(me.Machine) || e.out[j] == nil {
			continue
		}
		oc := e.out[j]
		select {
		case oc.wsem <- struct{}{}:
		case <-expired:
			continue
		}
		if oc.writeFrame(dl, payload) == nil {
			e.countSent(len(payload))
		}
		<-oc.wsem
	}
}

// runWriter ships superstep step's frame to peer j on the calling
// goroutine, in one vectored write: the job header carrying row, then
// the batch encoded from envs, both into the connection's encode buffer.
func (e *Endpoint[M]) runWriter(j, step int, dl time.Time, envs []transport.Envelope[M], row []byte) {
	t0 := e.now()
	oc := e.out[j]
	frame, err := wire.AppendBatchV2(wire.AppendJobHeader(oc.tx[:0], e.jobID, row), step, transport.MachineID(e.id), transport.MachineID(j), envs, e.codec)
	oc.tx = frame[:0]
	if err != nil {
		// An encode failure is OUR defect (a codec bug, a malformed
		// envelope), not peer j's: attribute it to this machine so the
		// blame broadcast names the actual culprit instead of spreading
		// "j failed" across the cluster.
		e.fail(&transport.MachineError{Machine: transport.MachineID(e.id), Superstep: step, Job: e.jobID,
			Err: fmt.Errorf("tcp: machine %d encode batch for %d: %w", e.id, j, err)})
		return
	}
	// writeFrameLocked installs dl first and refuses to write if the
	// deadline cannot be set: falling through into an unbounded write
	// would silently defeat the wedge detection the deadline exists for.
	if err := oc.writeFrameLocked(dl, frame); err != nil {
		e.sendFailed(j, step, err)
		return
	}
	e.countSent(len(frame))
	e.span(t0, obs.PhaseFrameWrite, j, step, wire.FrameSize(len(frame)))
}

// sendFailed files a failed write to peer j without failing the
// endpoint. The write says only that j's end is gone; j may have said
// why on its own connection to us — a blame frame ahead of its EOF —
// and a peer that fails over a third machine closes its end after its
// blame is out. So the reader of j, mid-superstep, or FinishSuperstep
// once the superstep drained, finds what j said before anything is
// blamed on j.
func (e *Endpoint[M]) sendFailed(j, step int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sendErr == nil {
		e.sendPeer, e.sendErr = j, e.attrib(j, step, fmt.Errorf("tcp: machine %d send to %d: %w", e.id, j, err))
	}
}

// readFrame reads peer j's next data frame into its recycled buffer
// *buf and accounts it. A failed read or a blame frame fails the
// endpoint, and ok is false.
func (e *Endpoint[M]) readFrame(j, step int, buf *[]byte) (frame []byte, ok bool) {
	t0 := e.now()
	frame, err := wire.ReadFrameInto(e.in[j].r, *buf)
	if err != nil {
		e.fail(e.attrib(j, step, fmt.Errorf("tcp: machine %d recv from %d: %w", e.id, j, err)))
		return nil, false
	}
	*buf = frame[:0]
	e.countRecv(len(frame))
	// The read span is dominated by stall — waiting for peer j to produce
	// and ship its frame — which is the quantity worth seeing per peer;
	// the decode gets its own span at the finish.
	e.span(t0, obs.PhaseFrameRead, j, step, wire.FrameSize(len(frame)))
	if len(frame) > 0 && frame[0] == wire.BatchAbort {
		// The peer is tearing down and names the machine it blames; the
		// abort precedes its FIN in stream order, so we learn the true
		// culprit instead of misattributing the peer's own EOF to it.
		// Blame frames are deliberately job-agnostic — a teardown must be
		// understood whichever job's endpoint reads it.
		bstep, suspect, aerr := wire.DecodeAbort(frame)
		if aerr != nil {
			e.fail(e.attrib(j, step, fmt.Errorf("tcp: machine %d bad abort from %d: %w", e.id, j, aerr)))
			return nil, false
		}
		e.fail(&transport.MachineError{Machine: suspect, Superstep: step, Job: e.jobID,
			Err: fmt.Errorf("tcp: peer %d aborted superstep %d blaming machine %d", j, bstep, suspect)})
		return nil, false
	}
	return frame, true
}

// runReader receives peer j's frame for this superstep: socket I/O plus
// what can be checked of the batch without decoding an envelope — blame
// frame, job header, version, superstep, an envelope count the frame
// can hold. The frame stays in the per-peer frame buffer (touched by
// exactly one goroutine): its batch for FinishSuperstep to decode into
// the inbox, its row, opaque here, to be returned as received.
func (e *Endpoint[M]) runReader(j int, job pipeJob) {
	if err := e.in[j].c.SetReadDeadline(job.dl); err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d set read deadline for %d: %w", e.id, j, err)))
		return
	}
	frame, ok := e.readFrame(j, job.step, &e.in[j].frame)
	if !ok {
		return
	}
	// Verify the frame belongs to OUR job before accepting a byte of it:
	// a straggler from a previous job decoded into this run would corrupt
	// it silently; rejected here it is a loud attributed error.
	gotJob, row, batch, err := wire.PeelJobHeader(frame)
	if err == nil && gotJob != e.jobID {
		err = fmt.Errorf("frame for job %d during job %d", gotJob, e.jobID)
	}
	var gotStep, count int
	if err == nil {
		gotStep, count, _, err = wire.BatchHeader(batch)
	}
	if err == nil && gotStep != job.step {
		err = fmt.Errorf("batch for superstep %d, want %d", gotStep, job.step)
	}
	if err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d bad frame from %d: %w", e.id, j, err)))
		return
	}
	e.rxBatch[j], e.rxCount[j], e.rxRow[j] = batch, count, row
}

// attributed wraps a per-peer failure as a transport.MachineError naming
// the peer machine and superstep, translating an expired I/O deadline
// into a diagnosis the caller can act on.
func attributed(peer, step int, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("no data within the superstep deadline (peer crashed or wedged?): %w", err)
	}
	return &transport.MachineError{Machine: transport.MachineID(peer), Superstep: step, Err: err}
}

// attrib is attributed plus the endpoint's job stamp: failures name
// the job they killed, so a multi-job daemon can fail exactly one
// submission. Job 0, a single run, means "no job" and is not printed.
func (e *Endpoint[M]) attrib(peer, step int, err error) error {
	me := attributed(peer, step, err).(*transport.MachineError)
	me.Job = e.jobID
	return me
}

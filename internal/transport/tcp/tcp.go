// Package tcp runs the k-machine cluster over real sockets: every
// machine owns a net.Listener and dials every peer, giving the full
// point-to-point mesh of the model (§1.1) as k·(k-1) actual TCP
// connections. Envelopes cross machine boundaries as length-prefixed
// binary frames (transport/wire), one batch frame per (sender,
// receiver) pair per superstep — empty batches included, which is how a
// receiver knows a superstep's input is complete — each followed on the
// same connection by one row frame: the sender's account of the
// superstep, opaque to this package (the socket link's core.Row, empty
// on the cluster-side Transport). Every machine thus holds all k rows
// once its exchange completes, so the exchange is the superstep's only
// synchronisation.
//
// The per-superstep exchange is a persistent parallel pipeline: every
// data connection is owned by a long-lived worker goroutine — one
// writer per outgoing peer, one reader per incoming peer — spawned once
// when the mesh connects and parked on a signal channel between
// supersteps. BeginSuperstep releases the readers, so each receives and
// header-checks its peer's frame in its own recycled buffer as soon as
// it arrives; StreamBatch hands a finished batch to its peer's writer
// mid-compute and FinishSuperstep the rest (each writer serialises its
// own peer's batch into its own recycled buffer), then waits for the
// generation to drain and decodes — with no goroutine spawned and no
// synchronisation state allocated on the steady-state path. Workers
// exit when the endpoint closes; they never leak across supersteps.
//
// The data connections are the whole mesh: there is no connection to
// a coordinator. What the machines of a run must agree on before they
// exchange — which job, which superstep — is stamped on every batch
// frame, so a machine that disagrees fails its peers' first read as an
// attributed error.
//
// The package knows nothing about rounds or words: cost accounting
// stays in core, which is what keeps Stats bit-identical between this
// transport and the in-memory loopback. What the package does account
// is the physical layer: every endpoint counts the actual frame bytes
// it ships and receives (transport.WireStats), the quantity the paper's
// word-based cost model abstracts over.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// DefaultDialTimeout bounds mesh construction: peers of a standalone
// node may start seconds apart.
const DefaultDialTimeout = 10 * time.Second

type dataConn struct {
	c net.Conn
	w *bufWriter
	r *bufReader
	// wmu serialises frame writes: the owning writer worker and a
	// failing peer's blame broadcast may write concurrently.
	wmu sync.Mutex
}

// pipeJob is one superstep's marching order for a parked pipeline
// worker: which superstep to ship or expect, the I/O deadline to
// install first and, for a writer, which of the pair's two frames to
// ship — the batch, the row, or both in one flush. It is passed by
// value over a buffered channel, so signalling a worker allocates
// nothing.
type pipeJob struct {
	step       int
	dl         time.Time
	batch, row bool
}

// Endpoint is one machine's typed socket stack over a Mesh: the
// listener and connections live in the embedded Mesh (promoted fields),
// while everything typed in M — codec, encode/decode scratch, pipeline
// workers — lives here. A single-run endpoint (Listen/Connect) owns a
// private mesh for its lifetime; a job-attached endpoint (Attach)
// borrows a standing mesh for one job and detaches, leaving the
// connections — and any bytes buffered on them — intact for the next
// job's endpoint. Each data connection is serviced by a persistent
// worker goroutine that lives from Connect/Attach to Detach/Close.
type Endpoint[M any] struct {
	*Mesh
	codec wire.Codec[M]

	// jobID/jobbed scope this endpoint's data frames to one job of a
	// resident mesh (wire doc.go "Job-scoped frames"): writers prefix
	// every batch with the job header, readers reject frames scoped to
	// any other job, and MachineError attribution carries the ID.
	// Single-run endpoints leave jobbed false and ship bare frames.
	jobID  uint64
	jobbed bool

	// Pipeline worker state, created once per endpoint lifetime. A
	// reader channel carries at most one job and a writer channel two — a
	// streamed batch and the row queued behind it — because
	// FinishSuperstep drains a superstep before the next can be
	// signalled; workWG counts in-flight jobs. Worker failures land in
	// the cause/shrapnel pair below — all hoisted out of the per-call
	// path, so a steady-state superstep allocates nothing.
	started  bool
	writerCh []chan pipeJob
	readerCh []chan pipeJob
	workWG   sync.WaitGroup

	// Worker error state, reset per superstep and guarded by mu. The
	// FIRST-ARRIVING genuine error wins (cause), because causality on a
	// failing mesh is temporal: the machine that died emits its FIN
	// before the cascade of peer teardowns it triggers, so a
	// slot-ordered scan could blame a healthy peer whose own teardown
	// EOF happened to sit in an earlier slot. net.ErrClosed failures —
	// shrapnel of our own cascade close — are kept apart and reported
	// only when no genuine cause surfaced.
	cause, shrapnel error

	// Per-superstep scratch, recycled across calls (the transport
	// ownership rule). perDest/tx/frame are dead once FinishSuperstep
	// returns and are single-buffered; a reader leaves its header-checked
	// batch (a window of frame[j]) and envelope count in rxBatch/rxCount
	// for the finish to decode into the inbox — the one place received
	// envelopes exist decoded — which is handed to the caller and
	// double-buffered so the previous superstep's envelopes survive while
	// the next one is built. The peer's row frame lands in rxRow (a
	// window of rowFrame[j]), returned as is and valid until the next
	// BeginSuperstep.
	perDest  [][]transport.Envelope[M] // outgoing split by destination
	tx       [][]byte                  // per-peer batch encode buffers
	frame    [][]byte                  // per-peer batch read buffers
	rowFrame [][]byte                  // per-peer row read buffers
	rxBatch  [][]byte                  // per-peer received batch, undecoded
	rxCount  []int                     // per-peer envelope count of rxBatch
	rxRow    [][]byte                  // per-peer received row
	inboxes  [2][]transport.Envelope[M]
	gen      int

	// txSrc[j] is what peer j's writer worker encodes this superstep:
	// the recycled perDest[j] split of the rest envelopes, or the
	// machine's own eagerly-streamed batch slice (which the Transport
	// contract keeps immutable until FinishSuperstep returns). A
	// separate indirection — instead of storing streamed batches into
	// perDest — so the next superstep's perDest[j][:0] recycling can
	// never append into machine-owned memory.
	txSrc [][]transport.Envelope[M]
	// txRow is the row every writer frames behind its batch this
	// superstep: the caller's bytes, dropped once FinishSuperstep returns.
	txRow []byte

	// Open-superstep state (the per-machine half of
	// transport.Transport; the cluster Transport composes k of these).
	// Guarded by mu where concurrent with StreamBatch; the
	// Begin→drive→Finish handoff provides the rest of the ordering.
	strEmitted []bool      // peers already streamed to this superstep
	strQueued  []bool      // ... whose batch went to the writer worker
	strOn      bool        // BeginSuperstep called, FinishSuperstep pending
	strStep    int         // the open superstep
	strDl      time.Time   // its I/O deadline
	strRelease func() bool // its ioGuard release, disarmed by Finish

	// serialWriters, sampled at construction, records that the process
	// has a single execution core (GOMAXPROCS=1): parallel writer workers
	// then cannot overlap with anything, and every wakeup is a pure
	// scheduling tax, so the inline serial-write paths (StreamBatch,
	// FinishSuperstep) are taken unconditionally. Readers
	// stay parallel regardless — a read is mostly netpoll parking, which
	// costs no core while it waits.
	serialWriters bool

	// Bytes-on-wire accounting: every frame that crosses a socket —
	// batches, rows and blame frames alike — is counted with its length
	// prefix, against the peer it crossed to or from. Atomics because
	// writers, readers and a blame broadcast account concurrently;
	// WireStats sums the lanes into totals on demand.
	wirePeers []peerWire // indexed by peer machine ID; [e.id] stays zero

	// rec, when non-nil, receives per-frame telemetry spans from the
	// pipeline workers (obs.PhaseFrameWrite/Read/Decode). Set via
	// SetRecorder before the first superstep; read without
	// synchronisation on the hot paths.
	rec obs.Recorder

	// mu serialises job dispatch against Close so a send can never race
	// the closing of a signal channel (see pipeWorker), and closed gates
	// BeginSuperstep on an endpoint that is already torn down.
	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
	closeErr  error
}

// newEndpoint wires a typed endpoint onto a mesh (private or standing).
func newEndpoint[M any](m *Mesh, codec wire.Codec[M]) *Endpoint[M] {
	k := m.k
	return &Endpoint[M]{
		Mesh:       m,
		codec:      codec,
		perDest:    make([][]transport.Envelope[M], k),
		tx:         make([][]byte, k),
		frame:      make([][]byte, k),
		rowFrame:   make([][]byte, k),
		rxBatch:    make([][]byte, k),
		rxCount:    make([]int, k),
		rxRow:      make([][]byte, k),
		txSrc:      make([][]transport.Envelope[M], k),
		strEmitted: make([]bool, k),
		strQueued:  make([]bool, k),
		wirePeers:  make([]peerWire, k),

		serialWriters: runtime.GOMAXPROCS(0) == 1,
	}
}

// Listen opens machine id's listener on addr ("host:0" picks a free
// port). Connect must be called before the endpoint can exchange. The
// endpoint owns its mesh: Close tears both down.
func Listen[M any](id, k int, addr string, codec wire.Codec[M]) (*Endpoint[M], error) {
	m, err := ListenMesh(id, k, addr)
	if err != nil {
		return nil, err
	}
	return newEndpoint(m, codec), nil
}

// Attach binds a typed per-job endpoint to a standing, connected mesh:
// fresh pipeline workers are spawned over the mesh's existing
// connections (cheap — no dials, no handshakes), every data frame the
// endpoint ships carries the job header for `job`, and frames scoped to
// any other job are rejected as attributed errors. On clean job end
// call Detach, which retires the workers and leaves the mesh reusable;
// Close (taken automatically on any failure) poisons the mesh, because
// closing the connections is what unblocks the surviving peers.
func Attach[M any](m *Mesh, codec wire.Codec[M], job uint64) (*Endpoint[M], error) {
	m.mu.Lock()
	connected, closed := m.connected, m.closed
	m.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("tcp: machine %d attach job %d to closed mesh: %w", m.id, job, net.ErrClosed)
	}
	if !connected {
		return nil, fmt.Errorf("tcp: machine %d attach job %d to unconnected mesh", m.id, job)
	}
	e := newEndpoint(m, codec)
	e.jobID, e.jobbed = job, true
	e.startPipeline()
	return e, nil
}

// peerWire is one peer's lane of the wire counters.
type peerWire struct {
	sentFrames, recvFrames atomic.Int64
	sentBytes, recvBytes   atomic.Int64
}

// WireStats returns the endpoint's physical-layer counters: frames and
// actual bytes (length prefix included) sent and received, with a
// per-peer breakdown in PerPeer
// (indexed by peer machine ID; the endpoint's own slot stays zero).
// Safe to call at any time, including mid-run.
func (e *Endpoint[M]) WireStats() transport.WireStats {
	w := transport.WireStats{PerPeer: make([]transport.PeerWireStats, e.k)}
	for j := range e.wirePeers {
		p := &e.wirePeers[j]
		pp := transport.PeerWireStats{
			FramesSent: p.sentFrames.Load(),
			FramesRecv: p.recvFrames.Load(),
			BytesSent:  p.sentBytes.Load(),
			BytesRecv:  p.recvBytes.Load(),
		}
		w.PerPeer[j] = pp
		w.FramesSent += pp.FramesSent
		w.FramesRecv += pp.FramesRecv
		w.BytesSent += pp.BytesSent
		w.BytesRecv += pp.BytesRecv
	}
	return w
}

// SetRecorder installs the telemetry recorder the pipeline workers
// record frame spans into (implements the transport.TraceSink shape at
// the endpoint level). Must be called before the first superstep; nil
// (the default) keeps the workers on their span-free path.
func (e *Endpoint[M]) SetRecorder(r obs.Recorder) { e.rec = r }

// now reads the span clock, or nothing on the span-free path.
func (e *Endpoint[M]) now() int64 {
	if e.rec == nil {
		return 0
	}
	return obs.Now()
}

// span records [t0, now) as one frame phase of superstep step against
// peer, when a recorder is installed.
func (e *Endpoint[M]) span(t0 int64, phase obs.Phase, peer, step, frameBytes int) {
	if e.rec != nil {
		e.rec.Record(obs.Span{Start: t0, Dur: obs.Now() - t0, Machine: int32(e.id),
			Peer: int32(peer), Superstep: int32(step), Phase: phase, Bytes: int32(frameBytes)})
	}
}

func (e *Endpoint[M]) countSent(peer, payloadLen int) {
	p := &e.wirePeers[peer]
	p.sentFrames.Add(1)
	p.sentBytes.Add(int64(wire.FrameSize(payloadLen)))
}

func (e *Endpoint[M]) countRecv(peer, payloadLen int) {
	p := &e.wirePeers[peer]
	p.recvFrames.Add(1)
	p.recvBytes.Add(int64(wire.FrameSize(payloadLen)))
}

// Connect completes the endpoint's private mesh (see Mesh.Connect for
// the dial/accept discipline). On success the persistent pipeline
// workers are spawned; they park between supersteps and exit on Close.
func (e *Endpoint[M]) Connect(peers []string, timeout time.Duration) error {
	if err := e.Mesh.Connect(peers, timeout); err != nil {
		e.Close()
		return err
	}
	e.startPipeline()
	return nil
}

// startPipeline spawns the persistent per-connection workers: a writer
// and a reader per data peer. Workers park on their signal channel
// between supersteps and exit when Close closes it.
func (e *Endpoint[M]) startPipeline() {
	e.writerCh = make([]chan pipeJob, e.k)
	e.readerCh = make([]chan pipeJob, e.k)
	for j := 0; j < e.k; j++ {
		if j == e.id {
			continue
		}
		e.writerCh[j] = make(chan pipeJob, 2)
		e.readerCh[j] = make(chan pipeJob, 1)
		go e.pipeWorker(e.writerCh[j], func(job pipeJob) { e.runWriter(j, job) })
		go e.pipeWorker(e.readerCh[j], func(job pipeJob) { e.runReader(j, job) })
	}
	e.mu.Lock()
	e.started = true
	e.mu.Unlock()
}

// pipeWorker is the body of every persistent pipeline goroutine: run
// one job per signal, park in between, exit when the signal channel
// closes. The park is a bare channel receive — no select — because the
// channel doubles as the quit signal: every job send happens under mu
// with closed unset, so no send can follow the close, and a job already
// buffered when Close fires is still delivered before the closed-channel
// zero value, so the sender's WaitGroup always drains (the job's I/O
// fails fast on the closed connections).
func (e *Endpoint[M]) pipeWorker(ch chan pipeJob, run func(pipeJob)) {
	for job := range ch {
		run(job)
		e.workWG.Done()
	}
}

// recordErr files a worker failure as the cause or the shrapnel:
// net.ErrClosed errors — the debris of our own teardown — are kept
// apart from genuine causes, and within each class the first arrival
// wins. Returns whether err was installed as the genuine cause.
func (e *Endpoint[M]) recordErr(err error) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if errors.Is(err, net.ErrClosed) {
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
// on the news), as is any connection whose writer currently holds the
// write mutex — blocking there on a wedged writer would postpone the
// Close that fail() exists to perform, stalling the whole teardown.
func (e *Endpoint[M]) castBlame(cause error) {
	var me *transport.MachineError
	if !errors.As(cause, &me) || me.Machine < 0 {
		return
	}
	payload := wire.AppendAbort(nil, me.Superstep, me.Machine)
	dl := time.Now().Add(blameWriteTimeout)
	for j := 0; j < e.k; j++ {
		if j == e.id || j == int(me.Machine) || e.out[j] == nil {
			continue
		}
		if sent, err := e.out[j].tryWriteFrameLocked(dl, payload); sent && err == nil {
			e.countSent(j, len(payload))
		}
	}
}

// runWriter ships this superstep's frames for peer j — the batch, the
// row, or the batch and the row in one flush: its own recycled buffer,
// its own connection, in parallel with every other writer.
func (e *Endpoint[M]) runWriter(j int, job pipeJob) {
	t0 := e.now()
	var batch []byte
	if job.batch {
		base := e.tx[j][:0]
		if e.jobbed {
			// Job-attached endpoints scope every batch: the header sits
			// ahead of the version byte, the batch encoding is untouched.
			base = wire.AppendJobHeader(base, e.jobID)
		}
		var err error
		batch, err = wire.AppendBatchV2(base, job.step, transport.MachineID(e.id), transport.MachineID(j), e.txSrc[j], e.codec)
		e.tx[j] = batch[:0]
		if err != nil {
			// An encode failure is OUR defect (a codec bug, a malformed
			// envelope), not peer j's: attribute it to this machine so the
			// blame broadcast names the actual culprit instead of spreading
			// "j failed" across the cluster.
			e.fail(&transport.MachineError{Machine: transport.MachineID(e.id), Superstep: job.step, Job: e.jobID,
				Err: fmt.Errorf("tcp: machine %d encode batch for %d: %w", e.id, j, err)})
			return
		}
	}
	// writeFrameLocked installs job.dl first and refuses to write if the
	// deadline cannot be set: falling through into an unbounded write
	// would silently defeat the wedge detection the deadline exists for.
	var err error
	switch {
	case job.batch && job.row:
		err = e.out[j].writeFrameLocked(job.dl, batch, e.txRow)
	case job.batch:
		err = e.out[j].writeFrameLocked(job.dl, batch)
	default:
		err = e.out[j].writeFrameLocked(job.dl, e.txRow)
	}
	if err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d send to %d: %w", e.id, j, err)))
		return
	}
	if job.batch {
		e.countSent(j, len(batch))
		e.span(t0, obs.PhaseFrameWrite, j, job.step, wire.FrameSize(len(batch)))
		t0 = e.now() // a row flushed with its batch records a zero-length span
	}
	if job.row {
		e.countSent(j, len(e.txRow))
		e.span(t0, obs.PhaseFrameWrite, j, job.step, wire.FrameSize(len(e.txRow)))
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
	e.countRecv(j, len(frame))
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

// runReader receives peer j's batch and row for this superstep: socket
// I/O plus what can be checked of the batch without decoding an
// envelope — blame frame, job, version, superstep, an envelope count
// the frame can hold. The batch stays in the per-peer frame buffer
// (touched by exactly one goroutine) for FinishSuperstep to decode into
// the inbox; the row, opaque here, is returned as received.
func (e *Endpoint[M]) runReader(j int, job pipeJob) {
	if err := e.in[j].c.SetReadDeadline(job.dl); err != nil {
		e.fail(e.attrib(j, job.step, fmt.Errorf("tcp: machine %d set read deadline for %d: %w", e.id, j, err)))
		return
	}
	frame, ok := e.readFrame(j, job.step, &e.frame[j])
	if !ok {
		return
	}
	var err error
	batch := frame
	if e.jobbed {
		// Verify the frame belongs to OUR job before accepting a byte of
		// it: a straggler from a previous job decoded into this run would
		// corrupt it silently; rejected here it is a loud attributed error.
		gotJob, rest, jobbed, jerr := wire.PeelJobHeader(frame)
		switch {
		case jerr != nil:
			err = jerr
		case !jobbed:
			err = fmt.Errorf("job-less frame during job %d", e.jobID)
		case gotJob != e.jobID:
			err = fmt.Errorf("frame for job %d during job %d", gotJob, e.jobID)
		}
		batch = rest
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
	row, ok := e.readFrame(j, job.step, &e.rowFrame[j])
	if !ok {
		return
	}
	e.rxBatch[j], e.rxCount[j], e.rxRow[j] = batch, count, row
}

// ioGuard applies ctx to the endpoint's blocking socket I/O. It returns
// the connection deadline to install before each read/write (zero when
// ctx has none, which clears any deadline left by a previous superstep)
// and a release function — nil for an uncancellable ctx, so the
// happy-path superstep allocates neither the AfterFunc nor a closure —
// that the operation must call before returning when non-nil.
// While the operation is in flight, cancellation of ctx closes the
// whole endpoint: Close is the only way to unblock conns that are
// already parked in a read, and a canceled run is over anyway — the
// mesh is single-run and not restartable after a failure.
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

// attributed wraps a per-peer failure as a transport.MachineError naming
// the peer machine and superstep, translating an expired I/O deadline
// into a diagnosis the caller can act on.
func attributed(peer, step int, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("no data within the superstep deadline (peer crashed or wedged?): %w", err)
	}
	return &transport.MachineError{Machine: transport.MachineID(peer), Superstep: step, Err: err}
}

// attrib is attributed plus the endpoint's job stamp: failures of a
// job-attached endpoint name the job they killed, so a multi-job daemon
// can fail exactly one submission. Zero (single-run endpoints) means
// "no job" and prints as before.
func (e *Endpoint[M]) attrib(peer, step int, err error) error {
	me := attributed(peer, step, err).(*transport.MachineError)
	me.Job = e.jobID
	return me
}

// Exchange is one whole superstep with nothing streamed eagerly and an
// empty row: BeginSuperstep followed by FinishSuperstep carrying every
// envelope.
func (e *Endpoint[M]) Exchange(ctx context.Context, step int, out []transport.Envelope[M]) ([]transport.Envelope[M], error) {
	if err := e.BeginSuperstep(ctx, step); err != nil {
		return nil, err
	}
	inbox, _, err := e.FinishSuperstep(step, out, nil)
	return inbox, err
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
	if !e.started {
		e.mu.Unlock()
		if release != nil {
			release()
		}
		return fmt.Errorf("tcp: machine %d begin superstep %d before Connect", e.id, step)
	}
	if e.strOn {
		e.mu.Unlock()
		if release != nil {
			release()
		}
		return fmt.Errorf("tcp: machine %d begin superstep %d with superstep %d still open", e.id, step, e.strStep)
	}
	e.cause, e.shrapnel = nil, nil
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
		// A write failure closed the endpoint and recorded its cause;
		// surface it now so the emitter aborts the run immediately
		// instead of discovering the corpse at FinishSuperstep.
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
// of `row`, this machine's account of the superstep (empty on the
// cluster-side Transport). A rest batch and its row leave in one flush;
// a peer whose batch was streamed gets the row alone, queued behind the
// batch on its writer when the batch went there. It then waits for the
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
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if !started {
		return
	}
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

// NewLoopbackMesh builds the complete k-endpoint mesh over loopback TCP
// inside one process: k listeners on 127.0.0.1, every ordered pair
// connected. Used by the cluster Transport and by kmnode -local.
func NewLoopbackMesh[M any](k int, codec wire.Codec[M]) ([]*Endpoint[M], error) {
	eps := make([]*Endpoint[M], k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		e, err := Listen[M](i, k, "127.0.0.1:0", codec)
		if err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
		eps[i] = e
		addrs[i] = e.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = eps[i].Connect(addrs, DefaultDialTimeout)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, e := range eps {
				e.Close()
			}
			return nil, err
		}
	}
	return eps, nil
}

// driveJob is one superstep's assignment for a cluster-side endpoint
// driver: finish the superstep with this rest outbox.
type driveJob[M any] struct {
	step int
	out  []transport.Envelope[M]
}

// Transport is the cluster-side transport.Transport implementation: all
// k machines live in this process, but every envelope crosses a real
// loopback TCP connection, with an empty row behind every batch: the
// in-process rendezvous has ruled the superstep before Finish, so the
// rows carry nothing and the exchange alone synchronises the
// endpoints. Each endpoint is owned by a persistent
// driver goroutine, signalled once per superstep — no goroutine or
// error-slice churn on the steady-state path.
type Transport[M any] struct {
	eps []*Endpoint[M]
	// inboxes are the double-buffered outer slices handed to the
	// cluster; the envelope storage inside is owned (and recycled) by
	// the endpoints.
	inboxes [2][][]transport.Envelope[M]
	gen     int

	drive   []chan driveJob[M]
	wg      sync.WaitGroup
	errs    []error
	results [][]transport.Envelope[M]

	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
}

// New builds a loopback-TCP transport for a k-machine cluster.
func New[M any](k int, codec wire.Codec[M]) (*Transport[M], error) {
	eps, err := NewLoopbackMesh(k, codec)
	if err != nil {
		return nil, err
	}
	t := &Transport[M]{
		eps:     eps,
		drive:   make([]chan driveJob[M], k),
		errs:    make([]error, k),
		results: make([][]transport.Envelope[M], k),
	}
	for i := 0; i < k; i++ {
		t.drive[i] = make(chan driveJob[M], 1)
		go t.driver(i)
	}
	return t, nil
}

// driver is the persistent goroutine owning endpoint i: one
// FinishSuperstep per signal, parked in between, exits when Close
// closes its channel. The same close-under-mutex discipline as the
// endpoint's pipeWorker keeps the WaitGroup sound against a concurrent
// Close.
func (t *Transport[M]) driver(i int) {
	for job := range t.drive[i] {
		inbox, _, err := t.eps[i].FinishSuperstep(job.step, job.out, nil)
		// On a FinishSuperstep error the endpoint has already closed
		// itself; the close cascades error returns to every peer blocked
		// on this endpoint's connections, so no driver hangs here.
		t.errs[i] = err
		t.results[i] = inbox
		t.wg.Done()
	}
}

// Begin implements transport.Transport: it opens the superstep on every
// endpoint, arming the per-superstep deadline guards and releasing all
// reader workers so frames are consumed as they arrive. Endpoints are
// opened serially under the transport mutex — the same t.mu→e.mu lock
// order as Close — which is cheap (no I/O happens in an endpoint
// BeginSuperstep, it only parks jobs on buffered channels) and gives
// SendBatch a consistent "all open" view.
func (t *Transport[M]) Begin(ctx context.Context, step int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("tcp: begin superstep %d on closed transport: %w", step, net.ErrClosed)
	}
	for i, e := range t.eps {
		if err := e.BeginSuperstep(ctx, step); err != nil {
			return fmt.Errorf("tcp: machine %d: %w", i, err)
		}
	}
	return nil
}

// SendBatch implements transport.Transport: machine from's eager batch
// for machine to goes straight to from's endpoint, which hands it to
// the parked writer worker for that peer. Called concurrently from the
// machines' compute goroutines (distinct senders), per the contract;
// each endpoint serialises its own state under its own mutex, so no
// transport-level lock is needed — or wanted, it would serialise the
// very sends eager emission exists to overlap.
func (t *Transport[M]) SendBatch(from, to transport.MachineID, batch []transport.Envelope[M]) error {
	if int(from) < 0 || int(from) >= len(t.eps) {
		return fmt.Errorf("tcp: SendBatch from invalid machine %d", from)
	}
	return t.eps[from].StreamBatch(to, batch)
}

// Finish implements transport.Transport: the superstep's barrier. Every
// endpoint ships its rest envelopes over its sockets concurrently
// (signalled to the persistent drivers), drains its pipeline generation
// (eager and rest frames alike) before any inbox is released to the
// cluster.
func (t *Transport[M]) Finish(ctx context.Context, step int, rest [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	k := len(t.eps)
	if len(rest) != k {
		return nil, fmt.Errorf("tcp: got %d outboxes for a %d-machine cluster", len(rest), k)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: finish superstep %d on closed transport: %w", step, net.ErrClosed)
	}
	for i := 0; i < k; i++ {
		t.errs[i] = nil
		t.results[i] = nil
	}
	t.wg.Add(k)
	for i := 0; i < k; i++ {
		t.drive[i] <- driveJob[M]{step: step, out: rest[i]}
	}
	t.mu.Unlock()
	t.wg.Wait()

	// Prefer the error that diagnoses the failure: a machine-attributed
	// error that is not close-shrapnel (net.ErrClosed from our own
	// cascade teardown) beats an attributed shrapnel error, which beats
	// an unattributed one. When machine j dies, the survivors' errors
	// name j while j's own endpoint reports only its severed sockets.
	var attributed, first error
	for _, err := range t.errs {
		if err == nil {
			continue
		}
		var me *transport.MachineError
		if errors.As(err, &me) {
			if !errors.Is(err, net.ErrClosed) {
				return nil, err
			}
			if attributed == nil {
				attributed = err
			}
		}
		if first == nil {
			first = err
		}
	}
	if attributed != nil {
		return nil, attributed
	}
	if first != nil {
		return nil, first
	}

	if t.inboxes[t.gen] == nil {
		t.inboxes[t.gen] = make([][]transport.Envelope[M], k)
	}
	inboxes := t.inboxes[t.gen]
	t.gen ^= 1
	copy(inboxes, t.results)
	return inboxes, nil
}

// Exchange implements transport.Transport: Begin, then Finish.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if err := t.Begin(ctx, step); err != nil {
		return nil, err
	}
	return t.Finish(ctx, step, outs)
}

// WireStats sums the physical-layer counters of every endpoint: total
// frames and bytes that crossed the loopback sockets. In a healthy mesh
// sent and received totals match.
func (t *Transport[M]) WireStats() transport.WireStats {
	var w transport.WireStats
	for _, e := range t.eps {
		w = w.Plus(e.WireStats())
	}
	return w
}

// SetRecorder implements transport.TraceSink: every endpoint's pipeline
// workers record their per-peer frame spans into r. Call before the
// first Begin.
func (t *Transport[M]) SetRecorder(r obs.Recorder) {
	for _, e := range t.eps {
		e.SetRecorder(r)
	}
}

// SeverMachine forcibly closes machine i's endpoint — its listener and
// every connection — simulating that machine's process dying mid-run.
// Survivors observe the severed connections as attributed errors on
// their next (or in-flight) superstep. It exists for fault injection:
// transport/chaos's drop-connection fault calls it to make "peer died"
// deterministically reproducible in tests.
func (t *Transport[M]) SeverMachine(i int) error {
	if i < 0 || i >= len(t.eps) {
		return fmt.Errorf("tcp: cannot sever machine %d of %d", i, len(t.eps))
	}
	return t.eps[i].Close()
}

// Close retires the drivers and tears down every endpoint.
func (t *Transport[M]) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.closeOnce.Do(func() {
		for _, ch := range t.drive {
			close(ch)
		}
	})
	var first error
	for _, e := range t.eps {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

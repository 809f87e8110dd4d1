// Package tcp is the socket layer under the socket link (transport/node):
// every machine owns a net.Listener and dials every peer, giving the full
// point-to-point mesh of the model (§1.1) as k·(k-1) actual TCP
// connections. Envelopes cross machine boundaries as length-prefixed
// binary frames (transport/wire), one batch frame per (sender,
// receiver) pair per superstep — empty batches included, which is how a
// receiver knows a superstep's input is complete — each followed on the
// same connection by one row frame: the sender's account of the
// superstep, opaque to this package (the socket link's core.Row). Every
// machine thus holds all k rows once its exchange completes, so the
// exchange is the superstep's only synchronisation.
//
// The per-superstep exchange is a persistent parallel pipeline: every
// data connection is owned by a long-lived worker goroutine — one
// writer per outgoing peer, one reader per incoming peer — spawned once
// when the endpoint attaches and parked on a signal channel between
// supersteps. BeginSuperstep releases the readers, so each receives and
// header-checks its peer's frame in its own recycled buffer as soon as
// it arrives; StreamBatch hands a finished batch to its peer's writer
// mid-compute and FinishSuperstep the rest (each writer serialises its
// own peer's batch into its own recycled buffer), then waits for the
// generation to drain and decodes — with no goroutine spawned and no
// synchronisation state allocated on the steady-state path. Workers
// exit when the endpoint detaches or closes; they never leak across
// supersteps.
//
// The data connections are the whole mesh: there is no connection to
// a coordinator. What the machines of a run must agree on before they
// exchange — which job, which superstep — is stamped on every batch
// frame, so a machine that disagrees fails its peers' first read as an
// attributed error.
//
// The package knows nothing about rounds or words: cost accounting
// stays in core, which is what keeps Stats bit-identical between the
// socket link and the in-process one. What the package does account
// is the physical layer: every endpoint counts the actual frame bytes
// it ships and receives (transport.WireStats), the quantity the paper's
// word-based cost model abstracts over.
package tcp

import (
	"fmt"
	"net"
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
// workers — lives here. Every endpoint is attached (Attach) to a
// connected mesh for one job — job 0 being a single run — and detaches
// at its end, leaving the connections, and any bytes buffered on them,
// intact for the next job's endpoint. Each data connection is serviced
// by a persistent worker goroutine that lives from Attach to
// Detach/Close.
type Endpoint[M any] struct {
	*Mesh
	codec wire.Codec[M]

	// jobID scopes this endpoint's data frames to one job of the mesh
	// (wire doc.go "Job-scoped frames"): writers prefix every batch with
	// the job header, readers reject frames scoped to any other job, and
	// MachineError attribution carries the ID. Job 0 is a single run: it
	// ships and accepts only bare frames.
	jobID uint64

	// Pipeline worker state, created once per endpoint lifetime. A
	// reader channel carries at most one job and a writer channel two — a
	// streamed batch and the row queued behind it — because
	// FinishSuperstep drains a superstep before the next can be
	// signalled; workWG counts in-flight jobs. Worker failures land in
	// the cause/shrapnel pair below — all hoisted out of the per-call
	// path, so a steady-state superstep allocates nothing.
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
	// only when no genuine cause surfaced. A failed write, against peer
	// sendPeer, is weaker still (see sendFailed): it fails the endpoint
	// only once the superstep drained without a cause.
	cause, shrapnel error
	sendErr         error
	sendPeer        int

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
	// transport.Transport).
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

// newEndpoint wires a typed endpoint onto a connected mesh.
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

// Attach binds a typed per-job endpoint to a connected mesh, and is
// the only way to make one: fresh pipeline workers are spawned over the
// mesh's existing connections (cheap — no dials, no handshakes). Job 0
// is a single run and ships bare batch frames; any other job prefixes
// every batch with its job header and rejects frames scoped to any
// other job — a bare one included — as attributed errors. On clean job
// end call Detach, which retires the workers and leaves the mesh
// reusable; Close (taken automatically on any failure) poisons the mesh,
// because closing the connections is what unblocks the surviving peers.
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
	e.jobID = job
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
// record frame spans into. Must be called before the first superstep; nil
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

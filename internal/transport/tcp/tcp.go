// Package tcp is the socket layer under the socket link (transport/node):
// every machine owns a net.Listener and dials every peer, giving the full
// point-to-point mesh of the model (§1.1) as k·(k-1) TCP connections —
// or, for a cluster inside one process (NewLoopbackMesh), as in-memory
// connections carrying the same bytes (fabricPipe), so that one host
// does not pay the kernel k·(k-1) times. Envelopes cross machine
// boundaries as length-prefixed binary frames (transport/wire), one
// batch frame per (sender, receiver) pair per superstep — empty batches
// included, which is how a receiver knows a superstep's input is
// complete — each carrying, ahead of its batch, the sender's row: its
// account of the superstep, opaque to this package (the socket link's
// core.Row). Every machine thus holds all k rows once its exchange
// completes, so the exchange is the superstep's only synchronisation.
//
// Every frame an endpoint sends is written by the goroutine that made
// it: FinishSuperstep takes the machine's per-peer batches, already
// split by core's driver, and writes each peer's frame itself, in one
// writev per peer. Only the receive side has workers: one
// persistent reader per incoming peer, spawned once when the endpoint
// attaches and parked on a signal channel between supersteps.
// BeginSuperstep releases the readers, so each receives and
// header-checks its peer's frame in its own recycled buffer as soon
// as it arrives; FinishSuperstep then waits for the readers and
// decodes — with no goroutine spawned and no synchronisation state
// allocated on the steady-state path. Readers exit when the endpoint
// detaches or closes; they never leak across supersteps.
//
// Each connection end holds only the half it uses: a dialed end writes
// its frames by writev straight from its encode buffer, an accepted end
// owns a small reader and its frame read buffer.
// These buffers belong to the Mesh, not to the per-job Endpoint, and
// live as long as it does, at the high-water mark of its largest job.
//
// Writing on the producing goroutine cannot deadlock, because every
// peer releases its reader for superstep s in BeginSuperstep(s), before
// any Step of s runs, and a reader waits on nothing but its peer's
// bytes: a write blocked on a full buffer — a socket's, or a bounded
// in-memory ring — always has a reader draining it, whatever the size.
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

// pipeJob is one superstep's marching order for a parked reader: which
// superstep to expect and the I/O deadline to install first. It is
// passed by value over a buffered channel, so signalling a reader
// allocates nothing.
type pipeJob struct {
	step int
	dl   time.Time
}

// Endpoint is one machine's typed socket stack over a Mesh: the
// listener and connections live in the embedded Mesh (promoted fields),
// while everything typed in M — codec, encode/decode scratch, readers —
// lives here. Every endpoint is attached (Attach) to a connected mesh
// for one job — job 0 being a single run — and detaches at its end,
// leaving the connections, and any bytes buffered on them, intact for
// the next job's endpoint. Frames are written by the
// goroutine that calls FinishSuperstep; each incoming
// connection is read by a persistent reader goroutine that lives from
// Attach to Detach/Close.
type Endpoint[M any] struct {
	*Mesh
	codec wire.Codec[M]

	// jobID scopes this endpoint's data frames to one job of the mesh
	// (wire doc.go "Job-scoped frames"): every batch written is prefixed
	// with the job header, readers reject frames scoped to any other
	// job, and MachineError attribution carries the ID. Job 0 is a
	// single run.
	jobID uint64

	// Reader state, created once per endpoint lifetime. A reader channel
	// carries at most one job, because FinishSuperstep drains a
	// superstep before the next can be signalled; workWG counts the
	// in-flight readers. Failures land in the cause/shrapnel pair below
	// — all hoisted out of the per-call path, so a steady-state
	// superstep allocates nothing.
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

	// Per-superstep scratch, recycled across calls and single-buffered.
	// A reader leaves its header-checked batch (a window of in[j].frame)
	// and envelope count in rxBatch/rxCount for the finish to decode
	// into inbox, the one place received envelopes exist decoded, valid
	// until the next finish decodes over it (core.Machine's ownership
	// rule). The peer's row lands in rxRow (another window of
	// in[j].frame), returned as is and valid until the next
	// BeginSuperstep.
	rxBatch [][]byte // per-peer received batch, undecoded
	rxCount []int    // per-peer envelope count of rxBatch
	rxRow   [][]byte // per-peer received row
	inbox   []transport.Envelope[M]

	// Open-superstep state, guarded by mu.
	strOn      bool        // BeginSuperstep called, FinishSuperstep pending
	strStep    int         // the open superstep
	strDl      time.Time   // its I/O deadline
	strRelease func() bool // its ioGuard release, disarmed by Finish

	// Bytes-on-wire accounting: every frame that crosses a socket —
	// batches and blame frames alike — is counted with its length
	// prefix. Atomics because writes, readers and a blame broadcast
	// account concurrently.
	sentFrames, recvFrames atomic.Int64
	sentBytes, recvBytes   atomic.Int64

	// rec, when non-nil, receives per-frame telemetry spans from the
	// writes, readers and decodes (obs.PhaseFrameWrite/Read/Decode). Set
	// via SetRecorder before the first superstep; read without
	// synchronisation on the hot paths.
	rec obs.Recorder

	// mu serialises reader dispatch against Close so a send can never
	// race the closing of a signal channel (see readLoop), and closed
	// gates BeginSuperstep on an endpoint that is already torn down.
	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
}

// newEndpoint wires a typed endpoint onto a connected mesh.
func newEndpoint[M any](m *Mesh, codec wire.Codec[M]) *Endpoint[M] {
	k := m.k
	return &Endpoint[M]{
		Mesh:    m,
		codec:   codec,
		rxBatch: make([][]byte, k),
		rxCount: make([]int, k),
		rxRow:   make([][]byte, k),
	}
}

// Attach binds a typed per-job endpoint to a connected mesh, and is
// the only way to make one: fresh readers are spawned over the mesh's
// existing connections (cheap — no dials, no handshakes). Every batch
// the endpoint writes carries job's header, and a batch scoped to any
// other job, or to none, is refused as an attributed error; job 0 is a
// single run. On clean job end call Detach, which retires the readers
// and leaves the mesh reusable; Close (taken automatically on any
// failure) poisons the mesh, because closing the connections is what
// unblocks the surviving peers.
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

// WireStats returns the endpoint's physical-layer counters: frames and
// actual bytes (length prefix included) sent and received. Safe to call
// at any time, including mid-run.
func (e *Endpoint[M]) WireStats() transport.WireStats {
	return transport.WireStats{
		FramesSent: e.sentFrames.Load(),
		FramesRecv: e.recvFrames.Load(),
		BytesSent:  e.sentBytes.Load(),
		BytesRecv:  e.recvBytes.Load(),
	}
}

// SetRecorder installs the telemetry recorder frame spans are recorded
// into. Must be called before the first superstep; nil (the default)
// keeps the data path span-free.
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

func (e *Endpoint[M]) countSent(payloadLen int) {
	e.sentFrames.Add(1)
	e.sentBytes.Add(int64(wire.FrameSize(payloadLen)))
}

func (e *Endpoint[M]) countRecv(payloadLen int) {
	e.recvFrames.Add(1)
	e.recvBytes.Add(int64(wire.FrameSize(payloadLen)))
}

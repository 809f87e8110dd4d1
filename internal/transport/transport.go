// Package transport defines what crosses machine boundaries: the
// envelope types, the attributed MachineError, the wire counters and the
// names of the in-process links.
//
// The package deliberately knows nothing about algorithms, graphs, or
// cost accounting. The paper's round/word accounting (§1.1) lives in
// internal/core and is computed from the outgoing envelope batches
// *before* any link carries them, so Stats are bit-identical
// on every link — the Klauck–Nanongkai–Pandurangan–Robinson
// conversion results (arXiv:1311.6209) are exactly about porting
// message-passing algorithms across substrates without changing their
// communication cost, and the accounting split enforces that here.
//
// The in-process cluster's envelopes travel on transport/inmem, the
// loopback that core's in-process link stages and delivers through.
// Sockets are transport/node's socket link, which drives one machine
// per tcp.Endpoint, its peers anywhere. The Transport interface is kept
// only for the frozen benchmark.
package transport

import (
	"context"
	"fmt"
)

// MachineID identifies one of the k machines.
type MachineID int32

// Envelope is one message in flight. Words is its size in machine words
// for bandwidth accounting; From is stamped by the sender's driver
// before the envelope reaches a link.
type Envelope[M any] struct {
	From, To MachineID
	Words    int32
	Msg      M
}

// Splitter splits one machine's flat outbox by destination, count then
// place, over a slab it reuses: the slab grows only when an outbox
// outgrows every earlier one. The zero Splitter is ready to use.
type Splitter[M any] struct {
	counts  []int
	buckets [][]Envelope[M]
	slab    []Envelope[M]
}

// Split returns buckets[j], the envelopes of out addressed to machine j
// of k in out's order, and -1. When every envelope has one destination
// that bucket is out itself, uncopied; otherwise the buckets are windows
// of the slab, valid until the next Split. An envelope addressed outside
// [0, k) places nothing: Split returns nil and the index of the first.
func (s *Splitter[M]) Split(k int, out []Envelope[M]) (buckets [][]Envelope[M], bad int) {
	if len(s.counts) != k {
		s.counts, s.buckets = make([]int, k), make([][]Envelope[M], k)
	}
	clear(s.counts)
	for i := range out {
		if to := out[i].To; to < 0 || int(to) >= k {
			return nil, i
		}
		s.counts[out[i].To]++
	}
	buckets = s.buckets
	clear(buckets)
	if len(out) > 0 && s.counts[out[0].To] == len(out) {
		buckets[out[0].To] = out
		return buckets, -1
	}
	if cap(s.slab) < len(out) {
		s.slab = make([]Envelope[M], len(out))
	}
	slab := s.slab
	for j, n := range s.counts {
		buckets[j], slab = slab[:0:n], slab[n:]
	}
	for _, env := range out {
		buckets[env.To] = append(buckets[env.To], env)
	}
	return buckets, -1
}

// Transport is a whole superstep of a k-machine cluster in one call:
// Exchange delivers outs[i], machine i's envelopes (self-addressed ones
// included), and returns inboxes[j], the envelopes for machine j in
// sender order, valid until the next Exchange. No run uses it: the
// in-process link calls the loopback (inmem) directly and sockets are a
// core.Link. It stays for the frozen benchmark's Exchange rows over
// inmem.New and tcp.New.
type Transport[M any] interface {
	Exchange(ctx context.Context, step int, outs [][]Envelope[M]) (inboxes [][]Envelope[M], err error)
	// Close releases the transport's resources; it is safe to call more
	// than once.
	Close() error
}

// MachineError attributes a distributed-runtime failure to the machine
// it was observed against and the superstep in which it surfaced. The
// tcp substrate wraps every per-peer receive/send failure (including
// os.ErrDeadlineExceeded from an expired superstep deadline) in one, so
// "peer j died" reaches the caller as a bounded, attributed error
// rather than an anonymous hang; core.Cluster.Sever synthesizes one for
// a machine killed in process. Extract with errors.As; Unwrap exposes
// the underlying cause for errors.Is checks.
type MachineError struct {
	// Machine is the peer the failure is attributed to — the machine
	// that crashed, wedged, or was killed, not the one reporting.
	Machine MachineID
	// Superstep is the superstep in which the failure surfaced.
	Superstep int
	// Job, when nonzero, is the scheduler-assigned job the failure
	// surfaced in. Single-run transports leave it zero; job-attached
	// endpoints of a resident mesh stamp it so a multi-job daemon can
	// attribute the failure to exactly one submission.
	Job uint64
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *MachineError) Error() string {
	if e.Job != 0 {
		return fmt.Sprintf("machine %d failed in superstep %d (job %d): %v", e.Machine, e.Superstep, e.Job, e.Err)
	}
	return fmt.Sprintf("machine %d failed in superstep %d: %v", e.Machine, e.Superstep, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *MachineError) Unwrap() error { return e.Err }

// WireStats counts what a substrate physically shipped: whole frames
// and their actual byte sizes (length prefixes included), whatever they
// carry, as totals. It is the measured counterpart of the paper's
// word-based cost model — Stats.Words counts model words before any
// transport touches an envelope, WireStats counts the bytes a real
// socket carried — and comparing the two quantifies both the encoding
// efficiency of the wire format and the protocol overhead (row and
// blame frames) that the model abstracts away. The loopback ships
// nothing and reports zeros; the per-peer breakdown is the trace's
// (obs.Counters.PerPeer).
type WireStats struct {
	// FramesSent/FramesRecv count whole frames shipped and received.
	FramesSent, FramesRecv int64
	// BytesSent/BytesRecv are the frames' on-wire sizes: payload plus
	// length prefix.
	BytesSent, BytesRecv int64
}

// Plus returns the field-wise sum, for aggregating per-endpoint
// counters into a cluster total.
func (w WireStats) Plus(o WireStats) WireStats {
	return WireStats{
		FramesSent: w.FramesSent + o.FramesSent,
		FramesRecv: w.FramesRecv + o.FramesRecv,
		BytesSent:  w.BytesSent + o.BytesSent,
		BytesRecv:  w.BytesRecv + o.BytesRecv,
	}
}

// Kind names the link of a run whose k machines share one process, for
// configuration surfaces (core.Config.Transport,
// kmachine.RunConfig.Transport).
type Kind string

const (
	// Default resolves to InMem.
	Default Kind = ""
	// InMem is the in-process rendezvous over the loopback transport.
	InMem Kind = "inmem"
	// TCP is k socket links (transport/node): every machine's frames
	// cross in-memory connections, the bytes a socket would carry.
	TCP Kind = "tcp"
)

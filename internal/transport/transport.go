// Package transport defines the substrate the k-machine cluster runs
// on: the envelope types that cross machine boundaries and the
// Transport interface that moves one superstep's batched envelopes
// between machines.
//
// The package deliberately knows nothing about algorithms, graphs, or
// cost accounting. The paper's round/word accounting (§1.1) lives in
// internal/core and is computed from the outgoing envelope batches
// *before* they are handed to a Transport, so Stats are bit-identical
// on every implementation — the Klauck–Nanongkai–Pandurangan–Robinson
// conversion results (arXiv:1311.6209) are exactly about porting
// message-passing algorithms across substrates without changing their
// communication cost, and the accounting split enforces that here.
//
// The in-process cluster's envelopes travel on transport/inmem, the
// loopback (transport/chaos decorates it with faults in tests). Sockets
// are a core.Link instead, transport/node's socket link, which drives
// one machine per tcp.Endpoint, its peers anywhere; tcp.Transport is
// kept only for the frozen benchmark.
package transport

import (
	"context"
	"fmt"
)

// MachineID identifies one of the k machines.
type MachineID int32

// Envelope is one message in flight. Words is its size in machine words
// for bandwidth accounting; From is stamped by the cluster before the
// envelope reaches a Transport.
type Envelope[M any] struct {
	From, To MachineID
	Words    int32
	Msg      M
}

// Transport moves one superstep's envelopes between the k machines.
//
// A superstep is opened with Begin, fed finished per-peer batches
// eagerly via SendBatch while machines are still computing, and closed
// with Finish, which ships whatever was not emitted and returns
// inboxes[j], the envelopes delivered to machine j for the next
// superstep, assembled in sender-ID order (self-addressed envelopes of
// machine j appear at position j of that order). An emitted batch for
// peer j simply IS sender i's contribution to inbox j — a sender must
// not both emit a batch to j and leave rest envelopes for j in the same
// superstep — so the inboxes do not depend on when within the superstep
// an envelope left its machine. Finish is the superstep's barrier: it
// returns only after every batch of the superstep (emitted or rest) has
// been routed, so a superstep cannot overtake a straggler. All
// envelopes arrive already validated (To in range, Words >= 0) and
// stamped with From.
//
// Failure contract. The ctx given to Begin bounds the whole superstep:
// implementations that can block on remote machines must observe its
// deadline and cancellation from Begin through Finish, so a crashed or
// wedged peer surfaces as an error within the deadline instead of an
// indefinite hang. When the failure can be attributed to a specific
// machine, the returned error wraps a *MachineError naming it and the
// superstep. A superstep is not restartable after an error: an
// implementation may tear down its resources to unblock peers (the tcp
// mesh does), so the caller must treat any Begin, SendBatch or Finish
// error as fatal for the run and Close the transport. A superstep
// opened with Begin and never finished (the run terminated quiescently,
// or aborted on an error) is abandoned by Close, which unblocks any
// eagerly-parked I/O.
//
// A Transport carries payloads verbatim and must preserve both the
// per-sender envelope order and the Words field — the accounting in
// core depends on it.
//
// Buffer ownership. A Transport may recycle inbox storage: the inboxes
// returned by Finish (both the outer slice and the envelope storage it
// points into) remain valid only until the second-following Finish on
// the same transport. Implementations double-buffer so that the
// previous superstep's inboxes — and any outgoing envelopes that alias
// them, e.g. second-hop forwards — are never overwritten while the
// current superstep is assembled; callers that need an envelope beyond
// that window must copy it. Symmetrically, rest and every batch handed
// to SendBatch stay owned by the caller: it must not mutate or recycle
// them until Finish returns (the tcp substrate encodes an emitted batch
// concurrently with the remaining compute), and the transport must not
// retain or mutate them afterwards, so machines may recycle their
// outbox slices across supersteps.
type Transport[M any] interface {
	// Begin opens superstep step: the transport arms eager receive on
	// all peers and accepts SendBatch calls until Finish.
	Begin(ctx context.Context, step int) error

	// SendBatch hands machine from's finished batch for machine to to
	// the substrate while the superstep is still computing. It may be
	// called concurrently for different senders (one goroutine per from
	// at a time), only between Begin and Finish of the same superstep,
	// at most once per (from, to) pair per superstep, never with from ==
	// to. An error means the batch was NOT accepted.
	SendBatch(from, to MachineID, batch []Envelope[M]) error

	// Finish ships the not-yet-emitted remainder (rest[i] = machine i's
	// leftover envelopes, self-addressed ones included), waits for every
	// machine's batches to be routed, and returns the assembled inboxes.
	Finish(ctx context.Context, step int, rest [][]Envelope[M]) (inboxes [][]Envelope[M], err error)

	// Exchange is a whole superstep with nothing emitted eagerly: Begin
	// followed by Finish carrying every envelope in outs.
	Exchange(ctx context.Context, step int, outs [][]Envelope[M]) (inboxes [][]Envelope[M], err error)

	// Close releases transport resources (listeners, connections) and
	// unblocks any I/O still pending on them. It is safe to call more
	// than once and from a goroutine other than the one driving the
	// superstep; no other method may be called after Close.
	Close() error
}

// MachineError attributes a distributed-runtime failure to the machine
// it was observed against and the superstep in which it surfaced. The
// tcp substrate wraps every per-peer receive/send failure (including
// os.ErrDeadlineExceeded from an expired superstep deadline) in one, so
// "peer j died" reaches the caller as a bounded, attributed error
// rather than an anonymous hang; the chaos transport synthesizes them
// for injected faults. Extract with errors.As; Unwrap exposes the
// underlying cause for errors.Is checks.
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
// carry. It is the measured counterpart of the paper's
// word-based cost model — Stats.Words counts model words before any
// transport touches an envelope, WireStats counts the bytes a real
// socket carried — and comparing the two quantifies both the encoding
// efficiency of the wire format and the protocol overhead (row and
// blame frames) that the model abstracts away. The loopback ships
// nothing and reports zeros.
type WireStats struct {
	// FramesSent/FramesRecv count whole frames shipped and received.
	FramesSent, FramesRecv int64
	// BytesSent/BytesRecv are the frames' on-wire sizes: payload plus
	// length prefix.
	BytesSent, BytesRecv int64
	// PerPeer, when the substrate tracks it, breaks the totals down by
	// peer machine ID (slice index; the entry at an endpoint's own ID
	// stays zero — machines don't dial themselves). Cluster totals sum
	// per-endpoint breakdowns, so entry j then reads "traffic exchanged
	// with machine j, summed over all endpoints". Nil when the substrate
	// doesn't track per-peer traffic.
	PerPeer []PeerWireStats
}

// PeerWireStats is one peer's share of an endpoint's wire traffic.
type PeerWireStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
}

// Plus returns the field-wise sum, for aggregating per-endpoint
// counters into a cluster total. PerPeer breakdowns merge entry-wise
// (the result is sized to the longer of the two).
func (w WireStats) Plus(o WireStats) WireStats {
	sum := WireStats{
		FramesSent: w.FramesSent + o.FramesSent,
		FramesRecv: w.FramesRecv + o.FramesRecv,
		BytesSent:  w.BytesSent + o.BytesSent,
		BytesRecv:  w.BytesRecv + o.BytesRecv,
	}
	if len(w.PerPeer) > 0 || len(o.PerPeer) > 0 {
		n := len(w.PerPeer)
		if len(o.PerPeer) > n {
			n = len(o.PerPeer)
		}
		sum.PerPeer = make([]PeerWireStats, n)
		for i := range sum.PerPeer {
			var a, b PeerWireStats
			if i < len(w.PerPeer) {
				a = w.PerPeer[i]
			}
			if i < len(o.PerPeer) {
				b = o.PerPeer[i]
			}
			sum.PerPeer[i] = PeerWireStats{
				FramesSent: a.FramesSent + b.FramesSent,
				FramesRecv: a.FramesRecv + b.FramesRecv,
				BytesSent:  a.BytesSent + b.BytesSent,
				BytesRecv:  a.BytesRecv + b.BytesRecv,
			}
		}
	}
	return sum
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
	// TCP is k socket links (transport/node): every machine its own
	// listener+dialer over loopback TCP connections.
	TCP Kind = "tcp"
)

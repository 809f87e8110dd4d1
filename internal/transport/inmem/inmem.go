// Package inmem is the in-process loopback: the shuffle that turns one
// superstep's per-peer batches into the k inboxes when all k machines
// share a process. core's in-process link delivers each superstep
// (Deliver) once the last of its machines has arrived; Exchange, kept
// for the benchmark's transport.Transport rows, splits flat outboxes
// into batches first.
//
// Deliver carves the k inboxes out of one flat buffer sized by a first
// pass over the batches, then copies every batch whole into place. The
// buffer and the inbox headers are recycled, so a steady-state
// superstep allocates nothing.
package inmem

import (
	"context"
	"fmt"

	"kmachine/internal/transport"
)

// Transport is the loopback for one k-machine cluster.
type Transport[M any] struct {
	k int

	// flat and inboxes are the recycled inbox storage: each Deliver
	// assembles over the inboxes the previous one returned.
	flat    []transport.Envelope[M]
	inboxes [][]transport.Envelope[M]

	// Exchange's per-machine splits, made by its first call.
	splits  []transport.Splitter[M]
	batches [][][]transport.Envelope[M]
}

// New returns the loopback for a k-machine cluster.
func New[M any](k int) *Transport[M] {
	if k < 2 {
		panic(fmt.Sprintf("inmem: need k >= 2 machines, got %d", k))
	}
	return &Transport[M]{k: k, inboxes: make([][]transport.Envelope[M], k)}
}

// Deliver assembles the superstep's inboxes: inboxes[j] holds, sender by
// sender in machine order, batches[i][j], what machine i sends j
// (batches[i] is nil when machine i sends nothing). The inboxes stay
// valid until the next Deliver, which assembles over them; batches stay
// the caller's.
func (t *Transport[M]) Deliver(batches [][][]transport.Envelope[M]) [][]transport.Envelope[M] {
	total := 0
	for _, bs := range batches {
		for _, b := range bs {
			total += len(b)
		}
	}
	if cap(t.flat) < total {
		t.flat = make([]transport.Envelope[M], 0, total)
	}
	flat := t.flat[:0]
	for j := range t.inboxes {
		start := len(flat)
		for _, bs := range batches {
			if bs != nil {
				flat = append(flat, bs[j]...)
			}
		}
		// Cap-limit each inbox so an append by a misbehaving caller
		// cannot clobber its neighbour's envelopes.
		t.inboxes[j] = flat[start:len(flat):len(flat)]
	}
	return t.inboxes
}

// Exchange implements transport.Transport: each machine's outbox split
// by destination, then Deliver. An envelope addressed to no machine is
// an error, and nothing is delivered.
func (t *Transport[M]) Exchange(_ context.Context, _ int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if len(outs) != t.k {
		return nil, fmt.Errorf("inmem: got %d outboxes for a %d-machine cluster", len(outs), t.k)
	}
	if t.splits == nil {
		t.splits, t.batches = make([]transport.Splitter[M], t.k), make([][][]transport.Envelope[M], t.k)
	}
	for i, out := range outs {
		var bad int
		if t.batches[i], bad = t.splits[i].Split(t.k, out); bad >= 0 {
			return nil, fmt.Errorf("inmem: envelope to invalid machine %d", out[bad].To)
		}
	}
	return t.Deliver(t.batches), nil
}

// Close implements transport.Transport; the loopback holds nothing to
// release.
func (t *Transport[M]) Close() error { return nil }

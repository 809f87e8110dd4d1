// Package inmem is the in-process loopback: the shuffle that turns one
// superstep's envelopes into the k inboxes when all k machines share a
// process. core's in-process link delivers each superstep (Deliver) once
// the last of its machines has arrived; Exchange is the same delivery
// with nothing emitted, kept for the benchmark's transport.Transport
// rows.
//
// Deliver assembles inboxes count-then-place: one pass over the emitted
// batches and the rest outboxes counts the per-destination envelopes,
// the k inboxes are then carved out of a single flat buffer, and a
// second pass places every envelope at its final position. The flat
// buffer and the inbox headers are recycled across supersteps, so a
// steady-state superstep performs no allocation at all once the buffers
// have grown to the run's working set.
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

	counts []int // per-destination envelope counts / placement cursors
	starts []int // prefix offsets of each inbox within flat
}

// New returns the loopback for a k-machine cluster.
func New[M any](k int) *Transport[M] {
	if k < 2 {
		panic(fmt.Sprintf("inmem: need k >= 2 machines, got %d", k))
	}
	return &Transport[M]{
		k:       k,
		inboxes: make([][]transport.Envelope[M], k),
		counts:  make([]int, k),
		starts:  make([]int, k+1),
	}
}

// Deliver assembles the superstep's inboxes: inboxes[j] holds, sender by
// sender in machine order, what each sent to j — its emitted batch for
// j, or its rest envelopes for j (batches[i][j] is machine i's batch for
// j, nil when none, and batches may be nil when no machine emitted;
// rest[i] is machine i's rest, self-addressed envelopes included; a
// sender never has both for one peer). A rest envelope addressed to no
// machine is an error, and nothing is delivered. The inboxes stay valid
// until the next Deliver, which assembles over them; batches and rest
// stay the caller's.
func (t *Transport[M]) Deliver(batches [][][]transport.Envelope[M], rest [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	counts := t.counts
	for i := range counts {
		counts[i] = 0
	}
	total := 0
	for i := range rest {
		if batches != nil {
			for to, b := range batches[i] {
				counts[to] += len(b)
				total += len(b)
			}
		}
		for j := range rest[i] {
			to := rest[i][j].To
			if to < 0 || int(to) >= t.k {
				return nil, fmt.Errorf("inmem: envelope to invalid machine %d", to)
			}
			counts[to]++
		}
		total += len(rest[i])
	}

	if cap(t.flat) < total {
		t.flat = make([]transport.Envelope[M], total)
	}
	flat := t.flat[:total]

	starts := t.starts
	starts[0] = 0
	for j := 0; j < t.k; j++ {
		starts[j+1] = starts[j] + counts[j]
		counts[j] = starts[j] // reuse counts as the placement cursors
	}
	for i := range rest {
		if batches != nil {
			for to, b := range batches[i] {
				copy(flat[counts[to]:], b)
				counts[to] += len(b)
			}
		}
		for j := range rest[i] {
			to := rest[i][j].To
			flat[counts[to]] = rest[i][j]
			counts[to]++
		}
	}
	for j := 0; j < t.k; j++ {
		// Cap-limit each inbox so an append by a misbehaving caller
		// cannot clobber its neighbour's envelopes.
		t.inboxes[j] = flat[starts[j]:starts[j+1]:starts[j+1]]
	}
	return t.inboxes, nil
}

// Exchange implements transport.Transport: Deliver with nothing emitted.
func (t *Transport[M]) Exchange(_ context.Context, _ int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if len(outs) != t.k {
		return nil, fmt.Errorf("inmem: got %d outboxes for a %d-machine cluster", len(outs), t.k)
	}
	return t.Deliver(nil, outs)
}

// Close implements transport.Transport; the loopback holds nothing to
// release.
func (t *Transport[M]) Close() error { return nil }

// Package inmem implements the in-process loopback Transport: the
// routing loop that used to be hard-wired into core.Cluster.Run,
// extracted behind the transport.Transport interface. It is the default
// substrate for simulations and tests: envelopes never leave the
// process and delivery is a pure slice shuffle.
//
// Finish assembles inboxes count-then-place: one pass over the emitted
// batches and the rest outboxes counts the per-destination envelopes,
// the k inboxes are then carved out of a single flat buffer, and a
// second pass places every envelope at its final position. The flat
// buffer and the inbox headers are recycled across supersteps (the
// transport ownership rule), so a steady-state superstep performs no
// allocation at all once the buffers have grown to the run's working
// set.
package inmem

import (
	"context"
	"fmt"

	"kmachine/internal/transport"
)

// Transport is the loopback implementation of transport.Transport.
type Transport[M any] struct {
	k      int
	closed bool

	// flat and inboxes are the recycled inbox storage: each Finish
	// assembles over the inboxes the previous one returned.
	flat    []transport.Envelope[M]
	inboxes [][]transport.Envelope[M]

	counts []int // per-destination envelope counts / placement cursors
	starts []int // prefix offsets of each inbox within flat

	// Emitted-batch staging: SendBatch runs concurrently, one goroutine
	// per sender, so the staged batches are indexed [from*k+to] and each
	// sender records the pairs it touched in its own list — no two
	// goroutines ever write the same slot. Finish folds the staged
	// batches into the count-then-place assembly and resets the staging
	// via the pair lists, keeping the steady state allocation-free.
	open     bool
	openStep int
	staged   [][]transport.Envelope[M] // [from*k+to], nil when not staged
	pairs    [][]int32                 // per-sender list of staged destinations
}

// New returns a loopback transport for a k-machine cluster.
func New[M any](k int) *Transport[M] {
	if k < 2 {
		panic(fmt.Sprintf("inmem: need k >= 2 machines, got %d", k))
	}
	t := &Transport[M]{
		k:       k,
		inboxes: make([][]transport.Envelope[M], k),
		counts:  make([]int, k),
		starts:  make([]int, k+1),
		staged:  make([][]transport.Envelope[M], k*k),
		pairs:   make([][]int32, k),
	}
	for i := range t.pairs {
		t.pairs[i] = make([]int32, 0, k)
	}
	return t
}

// Begin implements transport.Transport. There is no wire to arm; it
// just opens the staging area for SendBatch. The loopback never blocks,
// so ctx is only checked on entry to Begin and Finish — a canceled run
// stops routing immediately but can never hang here.
func (t *Transport[M]) Begin(ctx context.Context, step int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("inmem: superstep %d canceled: %w", step, err)
	}
	if t.closed {
		return fmt.Errorf("inmem: Begin on closed transport (superstep %d)", step)
	}
	if t.open {
		return fmt.Errorf("inmem: Begin superstep %d with superstep %d still open", step, t.openStep)
	}
	t.open, t.openStep = true, step
	return nil
}

// SendBatch implements transport.Transport. It only stages the batch —
// the caller owns the slice until Finish, per the contract, and the
// loopback copies envelopes out of it there. Safe for concurrent calls
// with distinct senders: each sender goroutine writes only its own
// staging slots and pair list.
func (t *Transport[M]) SendBatch(from, to transport.MachineID, batch []transport.Envelope[M]) error {
	if !t.open {
		return fmt.Errorf("inmem: SendBatch outside an open superstep")
	}
	if from < 0 || int(from) >= t.k || to < 0 || int(to) >= t.k || from == to {
		return fmt.Errorf("inmem: SendBatch with invalid pair (%d -> %d)", from, to)
	}
	idx := int(from)*t.k + int(to)
	if t.staged[idx] != nil {
		return fmt.Errorf("inmem: duplicate SendBatch for pair (%d -> %d)", from, to)
	}
	t.staged[idx] = batch
	t.pairs[from] = append(t.pairs[from], int32(to))
	return nil
}

// Finish implements transport.Transport: the count-then-place assembly,
// with each sender's staged batches taking the place of its (forbidden)
// rest envelopes for those destinations. Iterating senders in machine
// order makes inbox assembly deterministic and sender-ID ordered; the
// returned inboxes obey the contract's ownership rule (valid until the
// next Finish).
func (t *Transport[M]) Finish(ctx context.Context, step int, rest [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	defer func() {
		for i := range t.pairs {
			for _, to := range t.pairs[i] {
				t.staged[i*t.k+int(to)] = nil
			}
			t.pairs[i] = t.pairs[i][:0]
		}
		t.open = false
	}()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("inmem: superstep %d canceled: %w", step, err)
	}
	if t.closed {
		return nil, fmt.Errorf("inmem: Finish on closed transport (superstep %d)", step)
	}
	if !t.open || t.openStep != step {
		return nil, fmt.Errorf("inmem: Finish superstep %d without matching Begin", step)
	}
	if len(rest) != t.k {
		return nil, fmt.Errorf("inmem: got %d outboxes for a %d-machine cluster", len(rest), t.k)
	}

	counts := t.counts
	for i := range counts {
		counts[i] = 0
	}
	total := 0
	for i := range rest {
		row := t.staged[i*t.k : (i+1)*t.k]
		for _, to := range t.pairs[i] {
			n := len(row[to])
			counts[to] += n
			total += n
		}
		emitted := len(t.pairs[i]) > 0
		for j := range rest[i] {
			to := rest[i][j].To
			if to < 0 || int(to) >= t.k {
				return nil, fmt.Errorf("inmem: envelope to invalid machine %d (superstep %d)", to, step)
			}
			if emitted && row[to] != nil {
				return nil, fmt.Errorf("inmem: machine %d has rest envelopes for machine %d after emitting a batch to it in superstep %d", i, to, step)
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
		for _, to := range t.pairs[i] {
			batch := t.staged[i*t.k+int(to)]
			copy(flat[counts[to]:], batch)
			counts[to] += len(batch)
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

// Exchange implements transport.Transport: Begin, then Finish.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if err := t.Begin(ctx, step); err != nil {
		return nil, err
	}
	return t.Finish(ctx, step, outs)
}

// Close implements transport.Transport.
func (t *Transport[M]) Close() error {
	t.closed = true
	return nil
}

package core

// This file is the machine-facing half of the superstep schedule: an
// Emitter bound into a machine's StepContext lets its Step hand a
// finished per-peer batch to the transport while it is still computing
// the rest of the superstep. The engine (internal/core/engine.go) and
// the standalone node runtime (internal/transport/node) each own one
// Emitter per machine, reset it every superstep, and fold its emission
// record into the §1.1 accounting after the step barrier — which is how
// the word/round accounting stays pre-transport and independent of when
// the bytes left.
//
// Machines opt in through EmitBatch/EmitOrAppend; everything a machine
// does not emit travels in its returned outs and ships at the finish
// barrier.

// Emitter is the per-machine eager-emission state for one run. It is
// single-goroutine on the machine side (only machine `self`'s worker
// calls EmitBatch during its Step) and is read by the run coordinator
// strictly after the step barrier, which provides the happens-before
// edge; no locking is needed.
type Emitter[M any] struct {
	send func(to MachineID, batch []Envelope[M]) error
	self MachineID
	k    int

	err     error // first send failure; sticky until Reset
	msgs    int64 // envelopes emitted this superstep (never self-addressed)
	words   []int64
	emitted []bool
	touched []int32 // peers with emitted[·] set, for O(touched) Reset
}

// NewEmitter builds the emission state for machine self of a k-machine
// run; send hands one of self's batches to the substrate
// (transport.Transport.SendBatch with from bound to self).
func NewEmitter[M any](send func(to MachineID, batch []Envelope[M]) error, self MachineID, k int) *Emitter[M] {
	return &Emitter[M]{
		send:    send,
		self:    self,
		k:       k,
		words:   make([]int64, k),
		emitted: make([]bool, k),
		touched: make([]int32, 0, k),
	}
}

// Bind installs the emitter into the machine's StepContext so
// EmitBatch can find it. Call once per run, before the first Step.
func (em *Emitter[M]) Bind(sc *StepContext) { sc.emitter = em }

// Reset clears the per-superstep emission record. The coordinator
// calls it before each superstep begins.
func (em *Emitter[M]) Reset() {
	for _, j := range em.touched {
		em.emitted[j] = false
		em.words[j] = 0
	}
	em.touched = em.touched[:0]
	em.msgs = 0
	em.err = nil
}

// Err returns the first transport error a send hit this superstep, or
// nil. A non-nil Err is fatal for the run.
func (em *Emitter[M]) Err() error { return em.err }

// EmittedTo reports whether a batch was already emitted to peer `to`
// this superstep — such a peer must not appear in the machine's
// returned rest envelopes.
func (em *Emitter[M]) EmittedTo(to MachineID) bool {
	return int(to) >= 0 && int(to) < em.k && em.emitted[to]
}

// AccountInto folds the superstep's emitted word loads into row (the
// sender's length-k row of the link-load matrix) and returns the
// emitted envelope count plus whether anything was emitted at all. The
// sums are order-independent, so merging them with the rest envelopes'
// loads gives the same accounting whichever way an envelope travelled.
func (em *Emitter[M]) AccountInto(row []int64) (messages int64, any bool) {
	for _, j := range em.touched {
		row[j] += em.words[j]
	}
	return em.msgs, len(em.touched) > 0
}

// EmitBatch hands one finished per-peer batch for machine `to` to the
// transport right now and reports whether the transport took it. On
// true, the batch belongs to the transport until the superstep's Finish
// returns — the machine must not mutate or recycle it before its next
// Step — and the machine must not address `to` again this superstep
// (neither via EmitBatch nor in its returned outs). On false nothing
// was sent and the machine must route the envelopes through its
// returned outs; false covers every reason eager emission cannot happen
// — no emitter bound (a Step driven outside a run), self- or
// out-of-range destination, a peer already emitted to, an invalid
// envelope (the rest-envelope validator will then report the error), or
// a failing transport.
//
// An empty batch is a successful no-op: nothing ships, `to` stays
// available.
func EmitBatch[M any](sc *StepContext, to MachineID, batch []Envelope[M]) bool {
	em, ok := sc.emitter.(*Emitter[M])
	if !ok || em == nil || em.err != nil {
		return false
	}
	if int(to) < 0 || int(to) >= em.k || to == em.self || em.emitted[to] {
		return false
	}
	if len(batch) == 0 {
		return true
	}
	var words int64
	for i := range batch {
		env := &batch[i]
		if env.To != to || env.Words < 0 {
			return false
		}
		words += int64(env.Words)
	}
	for i := range batch {
		batch[i].From = em.self
	}
	if err := em.send(to, batch); err != nil {
		em.err = err
		return false
	}
	em.emitted[to] = true
	em.touched = append(em.touched, int32(to))
	em.words[to] = words
	em.msgs += int64(len(batch))
	return true
}

// EmitOrAppend emits batch to `to` when EmitBatch takes it and
// otherwise appends the batch to out, returning the (possibly grown)
// out slice — the one-liner that keeps a machine's emission sites
// free of fallback branches:
//
//	out = core.EmitOrAppend(ctx, to, m.bucket[to], out)
func EmitOrAppend[M any](sc *StepContext, to MachineID, batch []Envelope[M], out []Envelope[M]) []Envelope[M] {
	if EmitBatch(sc, to, batch) {
		return out
	}
	return append(out, batch...)
}

// EmitBuckets emits every non-empty per-destination bucket (buckets[j]
// holds the envelopes addressed to machine j) in ascending peer order,
// appending to out whatever could not be emitted — self-addressed
// buckets always land in out, where the engine delivers them for free.
// Per-destination envelope order is preserved either way, which is the
// property that keeps inbox assembly, and hence the golden output
// hashes, independent of when an envelope left the machine.
func EmitBuckets[M any](sc *StepContext, buckets [][]Envelope[M], out []Envelope[M]) []Envelope[M] {
	for j := range buckets {
		if len(buckets[j]) == 0 {
			continue
		}
		out = EmitOrAppend(sc, MachineID(j), buckets[j], out)
	}
	return out
}

package core

// This file is the machine-facing half of the superstep schedule: the
// Emitter that Drive binds into a machine's StepContext lets its Step
// hand over a finished per-peer batch as it is, instead of copying it
// into its returned outs. An emitted batch is charged to the machine's
// Row when it is taken, exactly like the rest envelopes Drive charges
// after the Step, and it leaves with them in the superstep's round, so
// the word/round accounting and every inbox are the same either way.
//
// Machines opt in through EmitBatch/EmitBuckets; everything a machine
// does not emit travels in its returned outs.

// Emitter is the per-machine emission record of one Drive. Only the
// machine's own goroutine touches it — EmitBatch during Step, Drive
// around it — so no locking is needed.
type Emitter[M any] struct {
	self MachineID
	k    int

	row     *Row            // the machine's account of the superstep
	batches [][]Envelope[M] // batches[j]: the batch emitted to j, nil when none
}

// EmitBatch hands one finished per-peer batch for machine `to` to the
// superstep's round and reports whether it was taken. On true, the
// batch belongs to the link until the round returns — the machine must
// not mutate or recycle it before its next Step — and the machine must
// not address `to` again this superstep (neither via EmitBatch nor in
// its returned outs). On false nothing was taken and the machine must
// route the envelopes through its returned outs; false covers every
// reason emission cannot happen — no emitter bound (a Step driven
// outside a run), self- or out-of-range destination, a peer already
// emitted to, or an invalid envelope (the rest-envelope validator will
// then report the error).
//
// An empty batch is a successful no-op: nothing ships, `to` stays
// available.
func EmitBatch[M any](sc *StepContext, to MachineID, batch []Envelope[M]) bool {
	em, ok := sc.emitter.(*Emitter[M])
	if !ok || em == nil {
		return false
	}
	if int(to) < 0 || int(to) >= em.k || to == em.self || em.batches[to] != nil {
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
	em.batches[to] = batch
	em.row.Add(to, words)
	em.row.Messages += int64(len(batch))
	return true
}

// EmitBuckets hands every peer's bucket (buckets[j] holds the
// envelopes addressed to machine j) to EmitBatch in ascending peer
// order and returns the rest: buckets[Self] itself — self-addressed
// envelopes never leave the machine, and the round delivers them for
// free — with any bucket EmitBatch refused appended after it. The rest
// shares buckets[Self]'s storage until the machine's next Step, and
// buckets[Self] keeps any growth those appends cause, so a machine
// stepped outside a run recycles it too. Per-destination envelope order
// is preserved either way, which is the property that keeps inbox
// assembly, and hence the golden output hashes, independent of which
// way an envelope was handed over.
func EmitBuckets[M any](sc *StepContext, buckets [][]Envelope[M]) []Envelope[M] {
	self := buckets[sc.Self]
	rest := self
	for j, b := range buckets {
		if MachineID(j) != sc.Self && !EmitBatch(sc, MachineID(j), b) {
			rest = append(rest, b...)
		}
	}
	buckets[sc.Self] = rest[:len(self)]
	return rest
}

package core

// This file is the machine-facing half of the superstep schedule: the
// run that Drive binds into a machine's StepContext lets its Step hand
// over a finished per-peer batch as it is, instead of copying it into
// its returned outs. An emitted batch is taken (take) when it is handed
// over, exactly as Drive takes each per-peer bucket of the returned outs
// after the Step, and it leaves with them in the superstep's round, so
// the word/round accounting and every inbox are the same either way.
// Only the machine's own goroutine touches the run — EmitBatch during
// Step, Drive around it — so no locking is needed.
//
// Machines opt in through EmitBatch/EmitBuckets; everything a machine
// does not emit travels in its returned outs.

// EmitBatch hands one finished per-peer batch for machine `to` to the
// superstep's round and reports whether it was taken. On true, the
// batch belongs to the link until the round returns — the machine must
// not mutate or recycle it before its next Step — and the machine must
// not address `to` again this superstep (neither via EmitBatch nor in
// its returned outs). On false nothing was taken and the machine must
// route the envelopes through its returned outs; false covers every
// reason emission cannot happen — no emitter bound (a Step driven
// outside a run), self- or out-of-range destination, a peer already
// emitted to, or an invalid envelope (Drive will then report the error
// when it takes the returned outs).
//
// An empty batch is a successful no-op: nothing ships, `to` stays
// available.
func EmitBatch[M any](sc *StepContext, to MachineID, batch []Envelope[M]) bool {
	r, ok := sc.emitter.(*run[M])
	if !ok || r == nil {
		return false
	}
	if to < 0 || int(to) >= len(r.emitted) || to == sc.Self || r.emitted[to] != nil {
		return false
	}
	if !r.take(to, batch) {
		return false
	}
	if len(batch) > 0 {
		r.emitted[to] = batch
	}
	return true
}

// take checks that every envelope of batch is addressed to `to` and not
// of negative size, then From-stamps and charges them, the self link
// free; on false nothing was taken. Drive takes a Step's returned outs
// through it too, so a batch costs the same whichever way it left.
func (r *run[M]) take(to MachineID, batch []Envelope[M]) bool {
	var words int64
	for i := range batch {
		env := &batch[i]
		if env.To != to || env.Words < 0 {
			return false
		}
		words += int64(env.Words)
	}
	for i := range batch {
		batch[i].From = r.sc.Self
	}
	if to != r.sc.Self {
		r.row.Add(to, words)
		r.row.Messages += int64(len(batch))
	}
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

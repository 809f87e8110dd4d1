package core

// This file is the machine-facing half of the superstep schedule: the
// Emitter that Drive binds into a machine's StepContext lets its Step
// hand a finished per-peer batch to the link while it is still computing
// the rest of the superstep. An emitted batch is charged to the
// machine's Row as it leaves, exactly like the rest envelopes Drive
// charges after the Step — which is how the word/round accounting stays
// independent of when the bytes left.
//
// Machines opt in through EmitBatch/EmitBuckets; everything a machine
// does not emit travels in its returned outs and ships with the round.

// Emitter is the per-machine eager-emission state of one Drive. Only
// the machine's own goroutine touches it — EmitBatch during Step, Drive
// around it — so no locking is needed.
type Emitter[M any] struct {
	send func(to MachineID, batch []Envelope[M]) error
	self MachineID
	k    int

	row     *Row  // the machine's account of the superstep
	err     error // first send failure; sticky until reset
	emitted []bool
	touched []int32 // peers with emitted[·] set, for O(touched) reset
}

// reset clears the per-superstep emission record.
func (em *Emitter[M]) reset() {
	for _, j := range em.touched {
		em.emitted[j] = false
	}
	em.touched = em.touched[:0]
	em.err = nil
}

// EmitBatch hands one finished per-peer batch for machine `to` to the
// link right now and reports whether the link took it. On true, the
// batch belongs to the link until the superstep's round
// returns — the machine must not mutate or recycle it before its next
// Step — and the machine must not address `to` again this superstep
// (neither via EmitBatch nor in its returned outs). On false nothing
// was sent and the machine must route the envelopes through its
// returned outs; false covers every reason eager emission cannot happen
// — no emitter bound (a Step driven outside a run), self- or
// out-of-range destination, a peer already emitted to, an invalid
// envelope (the rest-envelope validator will then report the error), or
// a failing link.
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
	em.row.Add(to, words)
	em.row.Messages += int64(len(batch))
	return true
}

// EmitBuckets hands every peer's bucket (buckets[j] holds the
// envelopes addressed to machine j) to the link in ascending peer order
// and returns the rest: buckets[Self] itself — self-addressed envelopes
// never leave the machine, and the round delivers them for free — with
// any bucket the link refused appended after it. The rest shares
// buckets[Self]'s storage until the machine's next Step, and
// buckets[Self] keeps any growth those appends cause, so a machine
// stepped outside a run recycles it too. Per-destination envelope order
// is preserved either way, which is the property that keeps inbox
// assembly, and hence the golden output hashes, independent of when an
// envelope left the machine.
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

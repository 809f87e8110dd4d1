package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"kmachine/internal/obs"
	"kmachine/internal/rng"
	"kmachine/internal/transport/wire"
)

// This file is the superstep driver: the one loop that runs a machine of
// the paper's model (§1.1), wherever the other k-1 machines live.
//
//	Drive (per machine)                       Link
//	check MaxSupersteps, run context
//	arm the superstep deadline
//	Begin(s) ───────────────────────────────▶ open superstep s
//	Step(inbox), EmitBatch records batches
//	recover panic; check run context
//	validate + From-stamp rest, fill my Row
//	Round(s, row, batches, rest) ───────────▶ deliver, then rule
//	  continue: inbox for s+1; checkpoint my part
//	  stop:     return the run's Stats
//	  abort:    return the reported error
//
// Everything the model defines once is here; what differs between "k
// machines in one process" and "one machine per process" is only how a
// superstep's envelopes become an inbox and how its k rows become a
// verdict, and that is the Link (local.go here, transport/node over
// sockets). One order holds on every link: a superstep is delivered,
// then charged — a superstep whose exchange failed is in neither the
// Stats nor a checkpoint — and an abort or a stop charges nothing.

// Link is one machine's connection to the rest of the cluster.
type Link[M any] interface {
	// Begin opens superstep step; ctx bounds the whole superstep, compute
	// included, because peers that finished first are already sending.
	Begin(ctx context.Context, step int) error
	// Round closes the superstep: it delivers this machine's envelopes —
	// batches[j], the validated batch emitted to peer j (nil when none),
	// and rest, the others, self-addressed ones included; never both for
	// one peer — together with every other machine's, submits row, and
	// returns the verdict all k machines get alike — with, on continue,
	// the inbox of step+1, assembled in sender order. batches and rest
	// belong to the link until Round returns. An error means the link is
	// dead.
	Round(ctx context.Context, step int, row *Row, batches [][]Envelope[M], rest []Envelope[M]) (Verdict, []Envelope[M], error)
}

// Driver is what Drive needs to run one machine: the run's Config and
// where this machine sits in it. Drive draws the machine's random
// stream from Seed, defaults MaxSupersteps to 1<<20, and records the
// machine's compute spans on Recorder; the link records the barrier and
// exchange spans it knows the shape of.
type Driver[M any] struct {
	Config
	ID      int
	Machine Machine[M]
	Link    Link[M]
	// Coord is set on machine 0 only, to the coordinator its link rules
	// through: its driver adds the Stats part to a checkpoint and
	// installs the one of a restored cut. (The socket link keeps a
	// coordinator on every machine and restores the others itself.)
	Coord *Coordinator
	// Assembler, when non-nil, receives this machine's part of the cut
	// after every Every-th superstep; Resume, when non-nil, is installed
	// before the first superstep, which is then Resume.Step+1. Both need
	// the machine to implement Snapshotter and a Codec.
	Assembler *Assembler
	Resume    *Cut
	Codec     wire.Codec[M]
}

// Drive runs the machine's supersteps until the stop ruling and returns
// the cluster-wide Stats it carries. On an error the caller must tear
// the machine's link down at once — peers may be parked on it.
func Drive[M any](d Driver[M]) (*Stats, error) {
	if d.Context == nil {
		d.Context = context.Background()
	}
	if d.MaxSupersteps == 0 {
		d.MaxSupersteps = 1 << 20
	}
	self := MachineID(d.ID)
	rand := rng.NewStream(d.Seed, uint64(d.ID))
	r := &run[M]{Driver: d, sc: StepContext{Self: self, K: d.K, RNG: rand},
		em:  Emitter[M]{self: self, k: d.K, batches: make([][]Envelope[M], d.K)},
		row: Row{Words: make([]int64, d.K)}}
	r.sc.emitter, r.em.row = &r.em, &r.row

	var snap Snapshotter
	var err error
	if d.Assembler != nil || d.Resume != nil {
		if snap, err = checkpointable(d.ID, d.Machine, d.Codec); err != nil {
			return nil, err
		}
	}
	var inbox []Envelope[M]
	start := 0
	if cut := d.Resume; cut != nil {
		if inbox, err = RestoreCheckpointPart(cut.Parts[d.ID], cut.Step, self, rand, snap, d.Codec); err != nil {
			return nil, err
		}
		if d.Coord != nil {
			if err := d.Coord.Restore(cut.Stats); err != nil {
				return nil, err
			}
		}
		start = cut.Step + 1
	}

	var part []byte // checkpoint part encode scratch, reused
	for step := start; ; step++ {
		if step >= d.MaxSupersteps {
			return nil, ErrMaxSupersteps
		}
		if err := d.Context.Err(); err != nil {
			return nil, fmt.Errorf("core: machine %d canceled before superstep %d: %w", d.ID, step, err)
		}
		v, next, err := r.superstep(step, inbox)
		if err != nil {
			return nil, err
		}
		switch v.Kind {
		case VerdictStop:
			return v.Stats, nil
		case VerdictAbort:
			return nil, errors.New(v.Abort)
		}
		inbox = next
		// The cut: superstep step is delivered and charged, and inbox is
		// exactly what step+1 consumes.
		if ck := d.Assembler; ck != nil && (step+1)%ck.every == 0 {
			if part, err = AppendCheckpointPart(part[:0], step, self, rand, snap, inbox, d.Codec); err == nil {
				err = ck.put(step, d.ID, part, d.Coord)
			}
			if err != nil {
				return nil, fmt.Errorf("core: machine %d checkpoint at superstep %d: %w", d.ID, step, err)
			}
		}
	}
}

// run is the per-machine state of one Drive call, allocated once so a
// steady-state superstep allocates nothing (the deadline context, when
// the knob is on, is the exception).
type run[M any] struct {
	Driver[M]
	sc  StepContext
	em  Emitter[M]
	row Row
}

// superstep drives one superstep through the link.
func (r *run[M]) superstep(step int, inbox []Envelope[M]) (Verdict, []Envelope[M], error) {
	sctx := r.Context
	if r.SuperstepTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(r.Context, r.SuperstepTimeout)
		defer cancel()
	}
	clear(r.em.batches)
	if err := r.Link.Begin(sctx, step); err != nil {
		return Verdict{}, nil, err
	}
	r.sc.Superstep = step
	var t0 int64
	if r.Recorder != nil {
		t0 = obs.Now()
	}
	out, done, failure := r.step(inbox)
	if r.Recorder != nil {
		r.Recorder.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
			Machine: int32(r.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseCompute})
	}
	// Second cancellation point: a cancel that landed while the machine
	// was stepping aborts before its envelopes reach the link.
	if err := r.Context.Err(); err != nil {
		return Verdict{}, nil, fmt.Errorf("core: machine %d canceled in superstep %d: %w", r.ID, step, err)
	}
	if failure == "" {
		failure = r.account(out, step)
	}
	r.row.Done, r.row.Err = done, failure
	batches := r.em.batches
	if failure != "" {
		// The round still runs, empty: peers must not wait on this machine.
		batches, out = nil, nil
	}
	v, next, err := r.Link.Round(sctx, step, &r.row, batches, out)
	r.row.Reset()
	if err != nil {
		// A run canceled mid-superstep surfaces from the link as teardown
		// shrapnel (closed connections); the cancellation is the cause.
		if cErr := r.Context.Err(); cErr != nil && !errors.Is(err, cErr) {
			err = fmt.Errorf("core: machine %d canceled in superstep %d: %w (teardown: %v)", r.ID, step, cErr, err)
		}
		return Verdict{}, nil, err
	}
	return v, next, nil
}

// step runs one Step; a panic becomes the machine's reported failure.
func (r *run[M]) step(inbox []Envelope[M]) (out []Envelope[M], done bool, failure string) {
	defer func() {
		if p := recover(); p != nil {
			failure = fmt.Sprintf("core: machine %d panicked in superstep %d: %v", r.ID, r.sc.Superstep, p)
		}
	}()
	out, done = r.Machine.Step(&r.sc, inbox)
	return out, done, ""
}

// account validates and From-stamps the rest envelopes and adds them to
// the row, next to what the emitter charged. Mixing per peer is forbidden
// — a machine that emitted a batch to j must not also return rest
// envelopes for j — which keeps each receiver's per-sender envelope
// order, and hence the golden output hashes, independent of which way
// a batch was handed over.
func (r *run[M]) account(out []Envelope[M], step int) (failure string) {
	em, row := &r.em, &r.row
	row.Pending = len(out) > 0 || row.Messages > 0 // emitted batches are charged already
	for i := range out {
		env := &out[i]
		if env.To < 0 || int(env.To) >= r.K {
			return fmt.Sprintf("core: machine %d sent to invalid machine %d", r.ID, env.To)
		}
		if env.Words < 0 {
			return fmt.Sprintf("core: machine %d sent negative-size envelope", r.ID)
		}
		env.From = r.sc.Self
		if env.To == r.sc.Self {
			continue // self-addressed envelopes are free
		}
		if em.batches[env.To] != nil {
			return fmt.Sprintf("core: machine %d returned envelopes for machine %d after emitting a batch to it in superstep %d", r.ID, env.To, step)
		}
		row.Messages++
		row.Add(env.To, int64(env.Words))
	}
	return ""
}

// DriveAll runs the k machines of a cluster that lives in one process,
// one goroutine each, and waits for all of them. A machine that fails
// has fail(i, err) called at once — it must tear that machine's link
// down so peers parked on it unblock. It returns machine 0's result,
// or the first error in machine order: on a stop every machine returns
// the same Stats, and on an abort the same message.
func DriveAll(k int, drive func(i int) (*Stats, error), fail func(i int, err error)) (*Stats, error) {
	stats := make([]*Stats, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer wg.Done()
			if stats[i], errs[i] = drive(i); errs[i] != nil {
				fail(i, errs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats[0], err
		}
	}
	return stats[0], nil
}

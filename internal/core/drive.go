package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"kmachine/internal/obs"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
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
//	split + charge returned outs, fill my Row
//	Round(s, row, batches) ─────────────────▶ deliver, then rule
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
	// batches[j], everything it sends machine j, validated and charged
	// (its self-addressed ones at batches[Self]; batches is nil when it
	// sends nothing) — together with every other machine's, submits row,
	// and returns the verdict all k machines get alike — with, on
	// continue, the inbox of step+1, assembled in sender order. batches
	// belong to the link until Round returns. An error means the link is
	// dead.
	Round(ctx context.Context, step int, row *Row, batches [][]Envelope[M]) (Verdict, []Envelope[M], error)
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
	// Assembler, when non-nil, receives this machine's part of the cut,
	// and the continue verdict's Stats, after every Every-th superstep;
	// Resume, when non-nil, is the cut DriveAll opened, whose part for
	// this machine is installed before the first superstep, which is then
	// Resume.Step+1. Both need the machine to implement Snapshotter and a
	// Codec.
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
		row: Row{Words: make([]int64, d.K)}, emitted: make([][]Envelope[M], d.K)}
	r.sc.emitter = r

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
				err = ck.put(step, d.ID, part, v.Stats)
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
	sc      StepContext
	row     Row                   // the machine's account of the superstep
	emitted [][]Envelope[M]       // emitted[j]: the batch emitted to j, nil when none
	split   transport.Splitter[M] // the returned outs, by destination
}

// superstep drives one superstep through the link.
func (r *run[M]) superstep(step int, inbox []Envelope[M]) (Verdict, []Envelope[M], error) {
	sctx := r.Context
	if r.SuperstepTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(r.Context, r.SuperstepTimeout)
		defer cancel()
	}
	clear(r.emitted)
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
	var batches [][]Envelope[M]
	if failure == "" {
		batches, failure = r.account(out, step)
	}
	// On a failure the round still runs, empty: peers must not wait.
	r.row.Done, r.row.Err = done, failure
	v, next, err := r.Link.Round(sctx, step, &r.row, batches)
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

// account splits the machine's returned outs by destination, takes every
// bucket as EmitBatch takes a batch, and returns what the round ships,
// each emitted batch in its peer's place — or the failure of the first
// envelope, in out's order, it refused. A machine that emitted a batch
// to j must not also return envelopes for j, which keeps each inbox's
// order, and hence the golden output hashes, the same either way.
func (r *run[M]) account(out []Envelope[M], step int) ([][]Envelope[M], string) {
	r.row.Pending = len(out) > 0 || r.row.Messages > 0 // emitted batches are charged already
	batches, bad := r.split.Split(r.K, out)
	for j, b := range batches {
		if len(b) == 0 {
			batches[j] = r.emitted[j]
		} else if r.emitted[j] != nil || !r.take(MachineID(j), b) {
			bad = 0
			break
		}
	}
	if bad < 0 {
		return batches, ""
	}
	for _, env := range out {
		switch {
		case env.To < 0 || int(env.To) >= r.K:
			return nil, fmt.Sprintf("core: machine %d sent to invalid machine %d", r.ID, env.To)
		case env.Words < 0:
			return nil, fmt.Sprintf("core: machine %d sent negative-size envelope", r.ID)
		case r.emitted[env.To] != nil:
			return nil, fmt.Sprintf("core: machine %d returned envelopes for machine %d after emitting a batch to it in superstep %d", r.ID, env.To, step)
		}
	}
	panic("core: account refused a sound outbox")
}

// DriveAll runs the k machines of a cluster that lives in one process,
// one goroutine each, on the Drivers driver(i) returns — asked for in
// machine order before any starts — and waits for all of them. It is
// the one resume path of both links: first it builds the run's
// Assembler, opens its latest cut, installs the cut's Stats in coords —
// every coordinator the run rules through — and hands every driver
// both. A machine that fails has fail(i, err) called at once — it must
// tear that machine's link down so peers parked on it unblock. It
// returns coords[0]'s Stats, partial on an error, and the first error
// in machine order: on a stop every machine returns the same Stats, and
// on an abort the same message.
func DriveAll[M any](cfg Config, coords []*Coordinator, driver func(i int) Driver[M], fail func(i int, err error)) (*Stats, error) {
	asm := NewAssembler(cfg.Checkpoint, cfg.K)
	var cut *Cut
	if asm != nil {
		var err error
		if cut, err = asm.LatestCut(); err != nil {
			return coords[0].Stats(), err
		}
	}
	if cut != nil {
		for _, c := range coords {
			if err := c.Restore(cut.Stats); err != nil {
				return coords[0].Stats(), err
			}
		}
	}
	drivers := make([]Driver[M], cfg.K)
	for i := range drivers {
		drivers[i] = driver(i)
		drivers[i].Assembler, drivers[i].Resume = asm, cut
	}
	errs := make([]error, cfg.K)
	var wg sync.WaitGroup
	wg.Add(cfg.K)
	for i, d := range drivers {
		go func() {
			defer wg.Done()
			if _, errs[i] = Drive(d); errs[i] != nil {
				fail(i, errs[i])
			}
		}()
	}
	wg.Wait()
	return coords[0].Stats(), cmp.Or(errs...)
}

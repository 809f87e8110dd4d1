package core

import (
	"context"
	"fmt"
	"sync"

	"kmachine/internal/obs"
)

// This file is the superstep engine behind Cluster.RunOn: k persistent
// per-machine worker goroutines coordinated by a reusable two-phase
// barrier. The engine is built so that a steady-state superstep
// allocates nothing:
//
//   - workers are spawned once per run, not once per superstep (no
//     go/WaitGroup churn in the loop);
//   - each worker owns one StepContext for the whole run, with only the
//     Superstep field updated between barriers;
//   - link loads are accumulated sparsely — only the links actually
//     touched this superstep are visited and re-zeroed, instead of
//     clearing the dense k×k matrix every superstep;
//   - the per-machine receive/send scratch vectors are reused across
//     supersteps (see accountSparse / AccountSuperstep).
//
// The superstep protocol is two barrier phases per superstep:
//
//	coordinator                      worker i
//	Begin; write ctxs[*].Superstep
//	start.Await() ───────────────▶   start.Await()
//	                                 outs[i], dones[i] = Step(...)
//	                                 (EmitBatch → SendBatch mid-Step)
//	done.Await()  ◀───────────────   done.Await()
//	validate, account, Finish
//
// All engine state (inboxes, outs, dones, panics, ctxs) is handed back
// and forth through the barriers, whose internal mutex establishes the
// happens-before edges; no other synchronisation is needed. Shutdown
// (normal termination, error, or panic propagation) sets stop before
// releasing the start barrier one last time, so workers always exit and
// a run never leaks goroutines.

// barrier is a reusable generation-counted rendezvous for n
// participants: the p-th Await of a generation releases everyone, and
// the barrier is immediately ready for the next generation.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	arrived int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

// Await blocks until all n participants have arrived.
func (b *barrier) Await() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// engine is the per-run worker-pool state.
type engine[M any] struct {
	machines []Machine[M]
	start    *barrier // releases workers into a superstep
	done     *barrier // collects workers after their Step
	stop     bool     // set (pre-start-barrier) to shut workers down

	// t is the substrate the run is on; checkpoint recovery replaces it,
	// and the emitters send through it, so they follow the replacement.
	t        Transport[M]
	emitters []*Emitter[M]

	// rec receives per-machine compute and barrier-wait spans when
	// non-nil (Config.Recorder); nil keeps workers on the span-free
	// path the alloc fences pin.
	rec obs.Recorder

	inboxes [][]Envelope[M]
	outs    [][]Envelope[M]
	dones   []bool
	panics  []error
	ctxs    []StepContext

	// Link-load accumulator: linkLoad is dense (k×k) but only the
	// entries in touched are nonzero, so accounting and re-zeroing cost
	// O(touched links), not O(k²). recvS/sentS are the per-superstep
	// scratch reused by accountSparse.
	linkLoad     []int64
	touched      []int32
	recvS, sentS []int64
}

// newEngine builds the run state over t, binds one emitter per machine
// and spawns the k workers; the caller defers shutdown.
func (c *Cluster[M]) newEngine(t Transport[M]) *engine[M] {
	k := c.cfg.K
	e := &engine[M]{
		machines: c.machines,
		t:        t,
		emitters: make([]*Emitter[M], k),
		rec:      c.cfg.Recorder,
		start:    newBarrier(k + 1),
		done:     newBarrier(k + 1),
		inboxes:  make([][]Envelope[M], k),
		outs:     make([][]Envelope[M], k),
		dones:    make([]bool, k),
		panics:   make([]error, k),
		ctxs:     make([]StepContext, k),
		linkLoad: make([]int64, k*k),
		touched:  make([]int32, 0, 4*k),
		recvS:    make([]int64, k),
		sentS:    make([]int64, k),
	}
	for i := 0; i < k; i++ {
		self := MachineID(i)
		e.ctxs[i] = StepContext{Self: self, K: k, RNG: c.rngs[i]}
		e.emitters[i] = NewEmitter(func(to MachineID, batch []Envelope[M]) error {
			return e.t.SendBatch(self, to, batch)
		}, self, k)
		e.emitters[i].Bind(&e.ctxs[i])
		go e.worker(i)
	}
	return e
}

// worker is the long-lived goroutine driving machine i.
func (e *engine[M]) worker(i int) {
	for {
		e.start.Await()
		if e.stop {
			return
		}
		if e.rec == nil {
			e.stepMachine(i)
			e.done.Await()
			continue
		}
		// Instrumented path: the compute span is the Step call, the
		// barrier span the wait for the slowest machine to arrive at the
		// done barrier (the straggler itself records ~0). The superstep
		// is captured before the barrier releases — after it, the
		// coordinator may already be stamping the next one into ctxs.
		t0 := obs.Now()
		e.stepMachine(i)
		t1 := obs.Now()
		step := int32(e.ctxs[i].Superstep)
		e.rec.Record(obs.Span{Start: t0, Dur: t1 - t0,
			Machine: int32(i), Peer: -1, Superstep: step, Phase: obs.PhaseCompute})
		e.done.Await()
		e.rec.Record(obs.Span{Start: t1, Dur: obs.Now() - t1,
			Machine: int32(i), Peer: -1, Superstep: step, Phase: obs.PhaseBarrier})
	}
}

// stepMachine runs one Step with panic recovery; a recovered panic is
// surfaced to the coordinator through panics[i].
func (e *engine[M]) stepMachine(i int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[i] = fmt.Errorf("core: machine %d panicked in superstep %d: %v", i, e.ctxs[i].Superstep, r)
		}
	}()
	e.outs[i], e.dones[i] = e.machines[i].Step(&e.ctxs[i], e.inboxes[i])
}

// stepAll drives one start/step/done cycle for all workers.
func (e *engine[M]) stepAll(step int) {
	for i := range e.ctxs {
		e.ctxs[i].Superstep = step
	}
	e.start.Await()
	// Workers are stepping their machines here.
	e.done.Await()
}

// shutdown releases the workers with the stop flag set so they exit.
// It is deferred by RunOn, covering every return path exactly once.
func (e *engine[M]) shutdown() {
	e.stop = true
	e.start.Await()
}

// newStats returns the zeroed run statistics of a k-machine cluster.
func newStats(k int) *Stats {
	return &Stats{RecvWords: make([]int64, k), SentWords: make([]int64, k)}
}

// RunOn executes the cluster over the given transport. Envelope
// validation, From-stamping, and all round/word accounting happen here,
// before batches reach the transport, so the returned Stats are
// bit-identical whichever substrate carries the envelopes. The
// transport is single-run: quiescence leaves its last superstep open
// for the caller's Close to abandon.
//
// Failure handling: Config.Context is observed between barrier phases
// (a canceled run aborts before the next superstep begins), and
// Config.SuperstepTimeout imposes a per-superstep deadline on the
// transport, so a dead or wedged peer machine surfaces as a wrapped,
// machine-attributed error within the timeout. Both knobs leave the
// happy path byte-identical: with neither set, no context machinery is
// allocated and the golden determinism hashes are unchanged.
func (c *Cluster[M]) RunOn(t Transport[M]) (*Stats, error) {
	runCtx := c.cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	stats := newStats(c.cfg.K)
	defer stats.finalize()
	e := c.newEngine(t)
	defer e.shutdown()
	return stats, c.run(e, runCtx, stats, nil, 0)
}

// run drives supersteps from start until quiescence or the first error.
// ck, when non-nil, arms per-superstep checkpointing (see
// checkpoint.go); RunCheckpointed passes the superstep after a restored
// checkpoint as start.
func (c *Cluster[M]) run(e *engine[M], runCtx context.Context, stats *Stats, ck *ckRun[M], start int) error {
	for step := start; ; step++ {
		done, err := c.superstep(e, runCtx, step, stats, ck)
		if done || err != nil {
			return err
		}
	}
}

// superstep drives one superstep; done reports quiescent termination.
// The transport is opened with Begin before the workers are released,
// machines hand finished per-peer batches to it mid-compute through
// their bound Emitters, and Finish ships the remainder and doubles as
// the superstep barrier. The per-superstep deadline, when configured,
// covers Begin through Finish, because the wire is active during
// compute; the deadline context is the run's sole allocation in a
// steady-state superstep, and only when the knob is on.
//
// The §1.1 accounting is pre-transport by construction. Every envelope
// is validated and From-stamped in core before the transport sees it —
// emitted batches in EmitBatch (on the emitting worker's goroutine),
// rest envelopes in the loop below — and the link-load sums fold the
// emitters' records and the rest loads together after the step barrier;
// per-link sums and maxima are order-independent, so the SuperstepStat
// does not depend on when an envelope left its machine. Mixing per peer
// is forbidden (a machine that emitted a batch to j must not also
// return rest envelopes for j), which keeps each receiver's per-sender
// envelope order — and hence the golden output hashes —
// schedule-independent.
//
// Termination quiesces BEFORE Finish, so the final superstep's Begin is
// deliberately left dangling and the transport's Close (deferred by the
// caller) unblocks the eagerly-parked receive I/O. Finishing it instead
// would ship k(k-1) empty frames for a superstep the model never
// charges.
func (c *Cluster[M]) superstep(e *engine[M], runCtx context.Context, step int, stats *Stats, ck *ckRun[M]) (done bool, err error) {
	k := c.cfg.K
	if step >= c.cfg.MaxSupersteps {
		return false, ErrMaxSupersteps
	}
	if err := runCtx.Err(); err != nil {
		return false, fmt.Errorf("core: run canceled before superstep %d: %w", step, err)
	}
	sctx := runCtx
	if c.cfg.SuperstepTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(runCtx, c.cfg.SuperstepTimeout)
		defer cancel()
	}
	for _, em := range e.emitters {
		em.Reset()
	}
	if err := e.t.Begin(sctx, step); err != nil {
		return false, fmt.Errorf("core: transport begin superstep %d: %w", step, err)
	}

	e.stepAll(step)
	for _, perr := range e.panics {
		if perr != nil {
			return false, perr
		}
	}
	// Second cancellation point, between the step barrier and
	// Finish: a cancel that landed while machines were stepping
	// aborts before the rest envelopes reach the transport.
	if err := runCtx.Err(); err != nil {
		return false, fmt.Errorf("core: run canceled in superstep %d: %w", step, err)
	}

	// Surface any mid-compute SendBatch failure before the finish
	// barrier, then validate and stamp the rest envelopes and fold
	// both emission records into the touched link loads; the cost
	// arithmetic itself lives in accountSparse/AccountSuperstep,
	// shared with the standalone coordinator.
	for i, em := range e.emitters {
		if serr := em.Err(); serr != nil {
			if cErr := runCtx.Err(); cErr != nil {
				return false, fmt.Errorf("core: run canceled in superstep %d: %w (teardown: %v)", step, cErr, serr)
			}
			return false, fmt.Errorf("core: machine %d emit failed in superstep %d: %w", i, step, serr)
		}
	}
	// From here to accountSparse the link-load accumulator is dirty;
	// every error return in between is a validation failure, which is
	// fatal for the run (never recovered from a checkpoint).
	var messages int64
	allDone, pending := true, false
	for i := 0; i < k; i++ {
		em := e.emitters[i]
		if !e.dones[i] {
			allDone = false
		}
		if len(e.outs[i]) > 0 || len(em.touched) > 0 {
			pending = true
		}
		for _, j := range em.touched {
			e.addLoad(i*k+int(j), em.words[j])
		}
		messages += em.msgs
		for j := range e.outs[i] {
			env := &e.outs[i][j]
			if env.To < 0 || int(env.To) >= k {
				return false, fmt.Errorf("core: machine %d sent to invalid machine %d", i, env.To)
			}
			if env.Words < 0 {
				return false, fmt.Errorf("core: machine %d sent negative-size envelope", i)
			}
			env.From = MachineID(i)
			if int(env.To) == i {
				// Self-addressed envelopes are free: local
				// computation costs nothing in the model.
				continue
			}
			if em.emitted[env.To] {
				return false, fmt.Errorf("core: machine %d returned envelopes for machine %d after emitting a batch to it in superstep %d", i, env.To, step)
			}
			messages++
			e.addLoad(i*k+int(env.To), int64(env.Words))
		}
	}
	if allDone && !pending {
		return true, nil
	}

	ss := accountSparse(k, c.cfg.Bandwidth, e.linkLoad, e.touched, messages, e.recvS, e.sentS)
	e.touched = e.touched[:0]
	for i := 0; i < k; i++ {
		stats.RecvWords[i] += e.recvS[i]
		stats.SentWords[i] += e.sentS[i]
	}
	stats.Rounds += ss.Rounds
	stats.Supersteps++
	stats.Messages += ss.Messages
	stats.Words += ss.Words
	if !c.cfg.DropPerSuperstep {
		stats.PerSuperstep = append(stats.PerSuperstep, ss)
	}

	// Deliver through the transport; the contract guarantees inboxes
	// come back assembled in sender order for determinism, and the
	// ownership rule lets the transport recycle inbox storage across
	// supersteps (double-buffered, so superstep s inboxes stay valid
	// while s+1 is assembled).
	var xt0 int64
	if e.rec != nil {
		xt0 = obs.Now()
	}
	next, err := e.t.Finish(sctx, step, e.outs)
	if e.rec != nil {
		// One cluster-level span per superstep (Machine -1): the finish
		// barrier — the drain of whatever the eager path had not already
		// shipped; the obs overlap gauge (frame-write ∩ compute) is the
		// direct proof of concurrency. Recorded on the error path too — a
		// failed run's timeline is the one worth reading.
		e.rec.Record(obs.Span{Start: xt0, Dur: obs.Now() - xt0,
			Machine: -1, Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
	}
	if err != nil {
		// A run canceled mid-superstep surfaces from the transport as
		// teardown shrapnel (closed connections); re-report the
		// cancellation as the root cause so errors.Is(err,
		// context.Canceled) holds as Config.Context documents.
		if cErr := runCtx.Err(); cErr != nil {
			return false, fmt.Errorf("core: run canceled in superstep %d: %w (teardown: %v)", step, cErr, err)
		}
		return false, fmt.Errorf("core: transport exchange failed in superstep %d: %w", step, err)
	}
	if len(next) != k {
		return false, fmt.Errorf("core: transport returned %d inboxes for a %d-machine cluster", len(next), k)
	}
	e.inboxes = next

	// The cut: superstep step is accounted and delivered, and next is
	// exactly what step+1 consumes.
	if ck != nil && (step+1)%ck.every == 0 {
		if err := ck.capture(step, next, stats); err != nil {
			return false, fmt.Errorf("core: checkpoint at superstep %d: %w", step, err)
		}
	}
	return false, nil
}

// addLoad charges w words to directed link idx (= from*k+to), recording
// the link as touched on its first nonzero load this superstep.
func (e *engine[M]) addLoad(idx int, w int64) {
	if w > 0 {
		if e.linkLoad[idx] == 0 {
			e.touched = append(e.touched, int32(idx))
		}
		e.linkLoad[idx] += w
	}
}

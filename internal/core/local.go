package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/wire"
)

// This file is the in-process Link: the k drivers of a cluster that
// lives in one process share one rendezvous over the loopback (inmem).
// Each superstep the drivers meet once, in Round, and the last to arrive
// rules the superstep and, when the run goes on, delivers and charges
// it, while the others stay parked. Because the verdict is known before
// anything is delivered, the final silent superstep delivers nothing.

// rendezvous is a generation-counted barrier whose last arriver closes
// the superstep before it releases the others; mu guards every field.
// The release is a broadcast on purpose: it makes all k drivers runnable
// at once, which is what keeps every core fed when Steps do real work
// (pagerank over tcp, k=8 on two cores, measured against releases that
// hand the wake-up from driver to driver: 845 ms a run, chain 921, binary
// tree 864 — those only win with idle machines, where nothing is to feed).
type rendezvous[M any] struct {
	lb    *inmem.Transport[M]
	coord *Coordinator
	// rec receives, per superstep, one barrier span per machine (its wait
	// for the slowest one) and one cluster-level exchange span (Machine
	// -1: the delivery); nil keeps the path span-free.
	rec obs.Recorder

	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	gen     int   // supersteps closed: a parked driver waits for the next
	open    int   // the superstep the drivers are in, for Sever
	err     error // first failure: every driver returns it

	// Handed over through Round; only the last arriver reads them.
	rows    []*Row
	batches [][][]Envelope[M]
	rests   [][]Envelope[M]
	// The last arriver's results, read by everyone after the release.
	verdict Verdict
	inboxes [][]Envelope[M]
	lastIn  int64 // obs clock when the slowest machine arrived
}

func newRendezvous[M any](coord *Coordinator, rec obs.Recorder, k int) *rendezvous[M] {
	rv := &rendezvous[M]{lb: inmem.New[M](k), coord: coord, rec: rec,
		rows: make([]*Row, k), batches: make([][][]Envelope[M], k), rests: make([][]Envelope[M], k)}
	rv.cond.L = &rv.mu
	return rv
}

// localLink is machine id's end of the rendezvous.
type localLink[M any] struct {
	rv *rendezvous[M]
	id int
}

// Begin notes the superstep the drivers are in.
func (l *localLink[M]) Begin(_ context.Context, step int) error {
	rv := l.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.open = step
	return rv.err
}

func (l *localLink[M]) Round(ctx context.Context, step int, row *Row, batches [][]Envelope[M], rest []Envelope[M]) (Verdict, []Envelope[M], error) {
	rv := l.rv
	var t1 int64
	if rv.rec != nil {
		t1 = obs.Now()
	}
	rv.mu.Lock()
	rv.rows[l.id], rv.batches[l.id], rv.rests[l.id] = row, batches, rest
	gen := rv.gen
	if rv.arrived++; rv.arrived == len(rv.rows) && rv.err == nil {
		// Last to arrive: everyone else is parked in Wait below, so nobody
		// contends for mu while the superstep is closed under it.
		rv.arrived = 0
		if rv.rec != nil {
			rv.lastIn = obs.Now()
		}
		rv.verdict, rv.inboxes, rv.err = rv.close(ctx, step)
		rv.gen++
		rv.cond.Broadcast()
	}
	for gen == rv.gen && rv.err == nil {
		rv.cond.Wait()
	}
	err := rv.err
	rv.mu.Unlock()
	if err != nil {
		return Verdict{}, nil, err
	}
	// What follows reads what the last arriver wrote; it is rewritten only
	// once all k have arrived again.
	if rv.rec != nil {
		// The straggler itself records ~0.
		rv.rec.Record(obs.Span{Start: t1, Dur: max(0, rv.lastIn-t1),
			Machine: int32(l.id), Peer: -1, Superstep: int32(step), Phase: obs.PhaseBarrier})
	}
	if rv.verdict.Kind != VerdictContinue {
		return rv.verdict, nil, nil
	}
	return rv.verdict, rv.inboxes[l.id], nil
}

// fail poisons the rendezvous: a driver that gave up (cancellation, a
// failed checkpoint, a severed machine) must not leave the others parked.
func (rv *rendezvous[M]) fail(err error) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.err == nil {
		rv.err = err
	}
	rv.cond.Broadcast()
}

// close rules superstep step from the k rows and, when the run goes on,
// delivers and charges it. The loopback assembles the inboxes in sender
// order over the last superstep's: this runs only once all k Steps that
// read those have returned.
func (rv *rendezvous[M]) close(ctx context.Context, step int) (Verdict, [][]Envelope[M], error) {
	v := rv.coord.Rule(rv.rows)
	if v.Kind != VerdictContinue {
		return v, nil, nil
	}
	// The superstep's deadline covers its Steps: one that outlasted it
	// is never delivered.
	if err := ctx.Err(); err != nil {
		return Verdict{}, nil, fmt.Errorf("core: superstep %d not delivered: %w", step, err)
	}
	var x0 int64
	if rv.rec != nil {
		x0 = obs.Now()
	}
	inboxes, err := rv.lb.Deliver(rv.batches, rv.rests)
	if rv.rec != nil {
		rv.rec.Record(obs.Span{Start: x0, Dur: obs.Now() - x0,
			Machine: -1, Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
	}
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("core: superstep %d not delivered: %w", step, err)
	}
	rv.coord.Charge(rv.rows)
	return v, inboxes, nil
}

// ErrSevered is the cause inside the *transport.MachineError that a run
// fails with when Cluster.Sever kills one of its machines; detect it
// with errors.Is.
var ErrSevered = errors.New("core: machine severed")

// Sever kills machine i of the run in progress in the superstep it is
// in, as node.LocalMesh.Sever kills a socket machine: every driver
// returns a *transport.MachineError naming i and that superstep, and the
// partial Stats hold the supersteps delivered before it. Fault injection
// for tests: a machine's Step that severs itself dies mid-superstep.
func (c *Cluster[M]) Sever(i int) error {
	rv := c.running.Load()
	if i < 0 || i >= c.cfg.K || rv == nil {
		return fmt.Errorf("core: cannot sever machine %d of %d outside a run", i, c.cfg.K)
	}
	rv.mu.Lock()
	step := rv.open
	rv.mu.Unlock()
	rv.fail(&transport.MachineError{Machine: MachineID(i), Superstep: step, Err: ErrSevered})
	return nil
}

// RunOn executes the cluster: k drivers, one goroutine each, sharing a
// rendezvous over the loopback. Envelope validation, From-stamping and
// all round/word accounting happen in Drive and the Coordinator, so the
// returned Stats are bit-identical to the socket link's. They accompany
// an error too, as the partial Stats of the failed run: the supersteps
// that were delivered, then charged — one that failed, or that was
// ruled an abort, is not among them. Config.Transport must name the
// loopback: the socket link is internal/algo's to run.
//
// Config.Checkpoint arms capture and installs the run's latest cut
// first — exactly as on the socket link; both need codec,
// which is otherwise unused (nil is fine for an unarmed run).
// Config.Context is observed before and after every Step, and
// Config.SuperstepTimeout bounds each superstep, so a Step that
// outlasts it fails the run with a deadline error. With neither set no
// context machinery is allocated and the golden determinism hashes are
// unchanged.
func (c *Cluster[M]) RunOn(codec wire.Codec[M]) (*Stats, error) {
	cfg := c.cfg
	if cfg.Transport != transport.Default && cfg.Transport != transport.InMem {
		return nil, fmt.Errorf("core: Config.Transport=%q is not the in-process link; run it through internal/algo", cfg.Transport)
	}
	coord := NewCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
	asm := NewAssembler(cfg.Checkpoint, cfg.K)
	var resume *Cut
	if asm != nil {
		var err error
		if resume, err = asm.LatestCut(); err != nil {
			return coord.Stats(), err
		}
	}
	rv := newRendezvous[M](coord, cfg.Recorder, cfg.K)
	c.running.Store(rv)
	defer c.running.Store(nil)
	_, err := DriveAll(cfg.K, func(i int) (*Stats, error) {
		d := Driver[M]{Config: cfg, ID: i, Machine: c.machines[i], Link: &localLink[M]{rv: rv, id: i},
			Assembler: asm, Resume: resume, Codec: codec}
		if i == 0 {
			d.Coord = coord
		}
		return Drive(d)
	}, func(_ int, err error) { rv.fail(err) })
	return coord.Stats(), err
}

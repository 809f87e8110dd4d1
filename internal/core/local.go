package core

import (
	"context"
	"fmt"
	"sync"

	"kmachine/internal/obs"
	"kmachine/internal/transport/wire"
)

// This file is the in-process Link: the k drivers of a cluster that
// lives in one process share one rendezvous over a Transport (inmem, or
// chaos.Wrap around it in tests). Each superstep they meet once, in Round;
// the last to arrive rules the superstep and, when the run goes on,
// calls the cluster-level Finish and charges it, while the others stay
// parked. Because the verdict is known before the transport is touched,
// the final silent superstep is never finished (no empty frames, and
// inmem's Exchanges counter equals Stats.Supersteps): its Begin is left
// dangling for the caller's Close to abandon.

// rendezvous is a generation-counted barrier whose last arriver closes
// the superstep before it releases the others; mu guards every field.
// The release is a broadcast on purpose: it makes all k drivers runnable
// at once, which is what keeps every core fed when Steps do real work
// (pagerank over tcp, k=8 on two cores, measured against releases that
// hand the wake-up from driver to driver: 845 ms a run, chain 921, binary
// tree 864 — those only win with idle machines, where nothing is to feed).
type rendezvous[M any] struct {
	t     Transport[M]
	coord *Coordinator
	// rec receives, per superstep, one barrier span per machine (its wait
	// for the slowest one) and one cluster-level exchange span (Machine
	// -1: the transport's Finish); nil keeps the path span-free.
	rec obs.Recorder

	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	gen     int   // supersteps closed: a parked driver waits for the next
	begun   int   // the superstep the transport is open for
	err     error // first failure: every driver returns it

	// Handed over through Round; only the last arriver reads them.
	rows  []*Row
	rests [][]Envelope[M]
	// The last arriver's results, read by everyone after the release.
	verdict Verdict
	inboxes [][]Envelope[M]
	lastIn  int64 // obs clock when the slowest machine arrived
}

func newRendezvous[M any](t Transport[M], coord *Coordinator, rec obs.Recorder, k int) *rendezvous[M] {
	rv := &rendezvous[M]{t: t, coord: coord, rec: rec, begun: -1,
		rows: make([]*Row, k), rests: make([][]Envelope[M], k)}
	rv.cond.L = &rv.mu
	return rv
}

// localLink is machine id's end of the rendezvous.
type localLink[M any] struct {
	rv *rendezvous[M]
	id int
}

// Begin opens the superstep on the transport once, on behalf of all k:
// the first driver to get here does it, before its own or anyone else's
// Step can send.
func (l *localLink[M]) Begin(ctx context.Context, step int) error {
	rv := l.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.err == nil && rv.begun != step {
		rv.begun = step
		if err := rv.t.Begin(ctx, step); err != nil {
			// Nobody can be parked in this superstep's Round yet, and every
			// driver passes through here first: no broadcast is needed.
			rv.err = fmt.Errorf("core: transport begin superstep %d: %w", step, err)
		}
	}
	return rv.err
}

func (l *localLink[M]) Send(to MachineID, batch []Envelope[M]) error {
	return l.rv.t.SendBatch(MachineID(l.id), to, batch)
}

func (l *localLink[M]) Round(ctx context.Context, step int, row *Row, rest []Envelope[M]) (Verdict, []Envelope[M], error) {
	rv := l.rv
	var t1 int64
	if rv.rec != nil {
		t1 = obs.Now()
	}
	rv.mu.Lock()
	rv.rows[l.id], rv.rests[l.id] = row, rest
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
// dead transport, a failed checkpoint) must not leave the others parked.
func (rv *rendezvous[M]) fail(err error) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.err == nil {
		rv.err = err
	}
	rv.cond.Broadcast()
}

// close rules superstep step from the k rows and, when the run goes on,
// delivers it through the transport and charges it. The transport's
// contract guarantees inboxes assembled in sender order, and its
// ownership rule lets it recycle their storage (double-buffered, so the
// inboxes of step stay valid while step+1 is assembled).
func (rv *rendezvous[M]) close(ctx context.Context, step int) (Verdict, [][]Envelope[M], error) {
	v := rv.coord.Rule(rv.rows)
	if v.Kind != VerdictContinue {
		return v, nil, nil
	}
	var x0 int64
	if rv.rec != nil {
		x0 = obs.Now()
	}
	inboxes, err := rv.t.Finish(ctx, step, rv.rests)
	if rv.rec != nil {
		// Recorded on the error path too — a failed run's timeline is the
		// one worth reading.
		rv.rec.Record(obs.Span{Start: x0, Dur: obs.Now() - x0,
			Machine: -1, Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
	}
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("core: transport exchange failed in superstep %d: %w", step, err)
	}
	if len(inboxes) != len(rv.rows) {
		return Verdict{}, nil, fmt.Errorf("core: transport returned %d inboxes for a %d-machine cluster", len(inboxes), len(rv.rows))
	}
	rv.coord.Charge(rv.rows)
	return v, inboxes, nil
}

// RunOn executes the cluster over the given transport: k drivers, one
// goroutine each, sharing a rendezvous. Envelope validation,
// From-stamping and all round/word accounting happen in Drive and the
// Coordinator, before batches reach the transport, so the returned
// Stats are bit-identical whichever substrate carries the envelopes.
// They accompany an error too, as the partial Stats of the failed run:
// the supersteps that were delivered, then charged — one whose exchange
// failed, or that was ruled an abort, is not among them.
// The transport is single-run: a stop leaves its last superstep open
// for the caller's Close to abandon.
//
// Config.Checkpoint arms capture and, with Resume, installs the sink's
// latest cut first — exactly as on the socket link; both need codec,
// which is otherwise unused (nil is fine for an unarmed run).
// Config.Context is observed before and after every Step, and
// Config.SuperstepTimeout bounds each superstep on the transport, so a
// dead or wedged peer machine surfaces as a wrapped, machine-attributed
// error within the timeout. With neither set no context machinery is
// allocated and the golden determinism hashes are unchanged.
func (c *Cluster[M]) RunOn(t Transport[M], codec wire.Codec[M]) (*Stats, error) {
	cfg := c.cfg
	coord := NewCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
	asm := NewAssembler(cfg.Checkpoint, cfg.K)
	var resume *Cut
	if asm != nil && cfg.Checkpoint.Resume {
		var err error
		if resume, err = LatestCut(asm.Sink(), cfg.K); err != nil {
			return coord.Stats(), err
		}
	}
	rv := newRendezvous(t, coord, cfg.Recorder, cfg.K)
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

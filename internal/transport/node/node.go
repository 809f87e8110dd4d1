// Package node is core.Drive's socket link: it connects ONE machine of
// a cluster to peers that live in other processes (Run, given the
// process's Place) or, for RunLocal and the job service, behind their
// own listeners in this one, each over its own tcp.Endpoint. cmd/kmnode
// is its CLI.
//
// The superstep loop is core.Drive and the run is a core.Config, the
// same ones as the in-process cluster's; what this package adds is how
// a superstep is closed over sockets. Each node finishes the
// superstep's exchange with its peers, then reports its core.Row —
// ⟨done, pending, messages, per-link word counts, error⟩ — to the
// coordinator (machine 0), which rules through the same
// core.Coordinator as the in-process rendezvous and broadcasts the
// verdict: continue, stop (carrying the final Stats), or abort. A run
// over sockets therefore reports the same Rounds and Words as the same
// machines in one process; the conversion results of Klauck et al.
// (arXiv:1311.6209) are about precisely this substrate-independence,
// and the integration tests assert it.
package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// Config is core.Config under its old name. It is kept only because
// frozen benchmark/micro.go spells node.Config{K, Bandwidth,
// DropPerSuperstep}; the next [benchmark] PR deletes it.
type Config = core.Config

// Place is where one process's machine sits in a multi-process cluster
// — all the socket link adds to a run's core.Config, and read only by
// Run: RunLocal and the job service give every machine its own loopback
// endpoint.
type Place struct {
	// ID is this process's machine.
	ID int
	// Listen is its listen address ("host:port"; port 0 picks a free
	// port, useful only when peers learn it out of band).
	Listen string
	// Peers holds the k listen addresses in machine-ID order.
	Peers []string
	// DialTimeout bounds mesh construction; 0 means tcp's default.
	DialTimeout time.Duration
}

// Run executes machine at.ID of the cluster cfg describes: listen, dial
// the mesh, then drive supersteps until the coordinator calls the
// computation complete. The returned Stats are the full cluster
// statistics (the coordinator computes them and ships them in the stop
// verdict), so every node of a successful run returns identical Stats.
func Run[M any](cfg core.Config, at Place, m core.Machine[M], codec wire.Codec[M]) (*core.Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if at.ID < 0 || at.ID >= cfg.K {
		return nil, fmt.Errorf("node: invalid id %d for k=%d", at.ID, cfg.K)
	}
	ep, err := tcp.Listen[M](at.ID, cfg.K, at.Listen, codec)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	if err := ep.Connect(at.Peers, at.DialTimeout); err != nil {
		return nil, err
	}
	return runNode(cfg, at.ID, ep, m, 0, codec, core.NewAssembler(cfg.Checkpoint, cfg.K))
}

// RunLocal spawns the full k-machine cluster over loopback TCP inside
// one process — every machine gets its own listener, dials every peer,
// and is driven over its own endpoint (kmnode's -local mode). The
// factory is called once per machine, like core.NewCluster's, and cfg
// is validated before any listener opens. The WireStats are the k
// endpoints' summed frames and bytes, control plane included.
func RunLocal[M any](cfg core.Config, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, transport.WireStats{}, err
	}
	eps, err := tcp.NewLoopbackMesh[M](cfg.K, codec)
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	return runCluster(cfg, eps, 0, codec, factory)
}

// runCluster drives all k machines of a cluster whose endpoints live in
// this process — the shared body of RunLocal and RunJobLocal (job != 0).
// A machine that fails closes its endpoint at once: peers may be parked
// in reads on its connections with no (or a long) deadline, and the
// close is what unwedges them. On success the endpoints are left open
// for the caller to Close or Detach.
func runCluster[M any](cfg core.Config, eps []*tcp.Endpoint[M], job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	asm := core.NewAssembler(cfg.Checkpoint, cfg.K)
	// Factory calls stay sequential, matching core.NewCluster's contract
	// (factories may append to shared slices without locking).
	machines := make([]core.Machine[M], cfg.K)
	for i := range machines {
		machines[i] = factory(core.MachineID(i))
	}
	stats, err := core.DriveAll(cfg.K, func(i int) (*core.Stats, error) {
		return runNode(cfg, i, eps[i], machines[i], job, codec, asm)
	}, func(i int, _ error) { eps[i].Close() })
	var w transport.WireStats
	for _, ep := range eps {
		w = w.Plus(ep.WireStats())
	}
	return stats, w, err
}

// runNode drives machine id over its connected endpoint: the optional
// job-begin handshake and resume round, core.Drive, the optional job-end
// handshake. On an error it returns the coordinator's partial Stats
// (nil on the other machines); the caller closes the endpoint.
func runNode[M any](cfg core.Config, id int, ep *tcp.Endpoint[M], m core.Machine[M], job uint64, codec wire.Codec[M], asm *core.Assembler) (*core.Stats, error) {
	if cfg.Recorder != nil {
		ep.SetRecorder(cfg.Recorder)
	}
	link := &socketLink[M]{ep: ep, id: id, k: cfg.K, rec: cfg.Recorder}
	d := core.Driver[M]{Config: cfg, ID: id, Machine: m, Link: link, Assembler: asm, Codec: codec}
	if id == 0 {
		link.coord = core.NewCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
		link.rows = make([]*core.Row, cfg.K)
		for i := range link.rows {
			link.rows[i] = &core.Row{Words: make([]int64, cfg.K)}
		}
		d.Coord = link.coord
	}
	if job != 0 {
		if err := ctrlRound(cfg, id, ep, ctrlJobBegin, job); err != nil {
			return link.coord.Stats(), fmt.Errorf("node: machine %d job %d begin: %w", id, job, err)
		}
	}
	if asm != nil && cfg.Checkpoint.Resume {
		var err error
		if d.Resume, err = resumeCut(cfg, id, ep, asm.Sink()); err != nil {
			return link.coord.Stats(), err
		}
	}
	stats, err := core.Drive(d)
	if err != nil {
		return link.coord.Stats(), err
	}
	if job != 0 {
		if err := jobEnd(cfg, id, ep, job); err != nil {
			return link.coord.Stats(), fmt.Errorf("node: machine %d job %d end: %w", id, job, err)
		}
	}
	return stats, nil
}

// socketLink is core.Drive's link over one tcp.Endpoint. A superstep is
// closed in two phases under the superstep context Begin armed: the
// data-plane exchange with every peer, then the report/verdict control
// round through machine 0.
//
// The failure protocol: a machine whose Step failed still exchanges (an
// empty batch) and carries the error in its report, so the coordinator
// learns of it and broadcasts an abort verdict that every machine
// returns as the same error; a machine that dies outright is detected
// by its peers' bounded reads (exchange) or the coordinator's bounded
// CollectReports, and the coordinator then broadcasts the abort best
// effort over whatever control connections remain before failing
// itself. Transport-level failures arrive as *transport.MachineError
// with machine/superstep attribution from the tcp layer.
type socketLink[M any] struct {
	ep    *tcp.Endpoint[M]
	id, k int
	rec   obs.Recorder
	coord *core.Coordinator // machine 0 only, with rows to decode into
	rows  []*core.Row
	// buf is the report (and, on machine 0, then the verdict) encode
	// scratch. Recycling it is safe because the endpoint either writes a
	// payload out immediately or (on the coordinator) queues it only
	// until the CollectReports of this same superstep pops it.
	buf []byte
}

func (l *socketLink[M]) Begin(ctx context.Context, step int) error {
	return l.ep.BeginSuperstep(ctx, step)
}

func (l *socketLink[M]) Send(to core.MachineID, batch []core.Envelope[M]) error {
	return l.ep.StreamBatch(to, batch)
}

func (l *socketLink[M]) Round(ctx context.Context, step int, row *core.Row, rest []core.Envelope[M]) (core.Verdict, []core.Envelope[M], error) {
	// The exchange span is this node's data-plane barrier, the barrier
	// span the report/verdict round, both with Machine = ID: every node
	// performs its own.
	t0 := l.now()
	next, err := l.ep.FinishSuperstep(step, rest)
	l.span(t0, step, obs.PhaseExchange)
	if err != nil {
		return core.Verdict{}, nil, err
	}
	defer l.span(l.now(), step, obs.PhaseBarrier)

	l.buf = appendReport(l.buf[:0], step, row)
	if err := l.ep.SendToCoordinator(ctx, l.buf); err != nil {
		return core.Verdict{}, nil, fmt.Errorf("node: machine %d report (superstep %d): %w", l.id, step, err)
	}
	if l.coord == nil {
		payload, err := l.ep.ReceiveVerdict(ctx)
		if err != nil {
			// No verdict within the deadline: the coordinator (or the path
			// to it) is gone. Attribute the wait to machine 0 — unless the
			// tcp layer already attributed a more specific culprit.
			var me *transport.MachineError
			if !errors.As(err, &me) {
				err = &transport.MachineError{Machine: 0, Superstep: step,
					Err: fmt.Errorf("node: machine %d verdict wait: %w", l.id, err)}
			}
			return core.Verdict{}, nil, err
		}
		v, err := decodeVerdict(payload, l.k)
		return v, next, err
	}
	reports, err := l.ep.CollectReports(ctx, step)
	for i := 0; err == nil && i < len(reports); i++ {
		if err = decodeReport(l.rows[i], reports[i], step); err != nil {
			err = fmt.Errorf("node: coordinator report from %d: %w", i, err)
		}
	}
	if err != nil {
		// A report that never arrived means a peer died between the
		// exchange and its report. Propagate the abort to the survivors so
		// they return an attributed error instead of waiting out their own
		// deadlines.
		l.abortBroadcast(ctx, err)
		return core.Verdict{}, nil, err
	}
	v := l.coord.Rule(l.rows)
	if v.Kind == core.VerdictContinue {
		l.coord.Charge(l.rows) // delivered above, so charged
	}
	l.buf = appendVerdict(l.buf[:0], v)
	return v, next, l.ep.Broadcast(ctx, l.buf)
}

// abortBroadcast ships an abort verdict to every peer, best effort.
// The coordinator reaches here precisely when the superstep context has
// failed (an expired deadline is the common case), so the writes run
// under a fresh short deadline — reusing the dead context would make
// every abort write fail instantly and leave the survivors to time out
// blaming the coordinator instead of the real culprit.
func (l *socketLink[M]) abortBroadcast(sctx context.Context, cause error) {
	actx, cancel := context.WithTimeout(context.WithoutCancel(sctx), 2*time.Second)
	defer cancel()
	_ = l.ep.Broadcast(actx, appendVerdict(nil, core.Verdict{Kind: core.VerdictAbort, Abort: cause.Error()}))
}

func (l *socketLink[M]) now() int64 {
	if l.rec == nil {
		return 0
	}
	return obs.Now()
}

func (l *socketLink[M]) span(start int64, step int, phase obs.Phase) {
	if l.rec != nil {
		l.rec.Record(obs.Span{Start: start, Dur: obs.Now() - start,
			Machine: int32(l.id), Peer: -1, Superstep: int32(step), Phase: phase})
	}
}

// The report frame is a core.Row on the wire: flags, superstep,
// messages, the link count and that many link words, then the error
// text if flagged.
const (
	repFlagDone = 1 << iota
	repFlagPending
	repFlagError
)

func appendReport(dst []byte, step int, r *core.Row) []byte {
	var flags byte
	if r.Done {
		flags |= repFlagDone
	}
	if r.Pending {
		flags |= repFlagPending
	}
	if r.Err != "" {
		flags |= repFlagError
	}
	dst = append(dst, flags)
	dst = wire.AppendUvarint(dst, uint64(step))
	dst = wire.AppendUvarint(dst, uint64(r.Messages))
	dst = wire.AppendUvarint(dst, uint64(len(r.Words)))
	for _, w := range r.Words {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	return append(dst, r.Err...)
}

// decodeReport decodes a report into r, whose Words fix the link count
// — the coordinator decodes k reports per superstep into the same
// recycled rows.
func decodeReport(r *core.Row, buf []byte, wantStep int) error {
	if len(buf) < 1 {
		return fmt.Errorf("node: empty report")
	}
	r.Reset()
	c := wire.Cursor{Src: buf, Off: 1}
	step := c.Uvarint()
	r.Messages = int64(c.Uvarint())
	if n := c.Uvarint(); c.Err == nil && n != uint64(len(r.Words)) {
		return fmt.Errorf("node: report has %d links, want %d", n, len(r.Words))
	}
	for i := range r.Words {
		r.Add(core.MachineID(i), int64(c.Uvarint()))
	}
	if c.Err != nil {
		return fmt.Errorf("node: corrupt report: %w", c.Err)
	}
	if int(step) != wantStep {
		return fmt.Errorf("node: report for superstep %d, want %d", step, wantStep)
	}
	r.Done, r.Pending = buf[0]&repFlagDone != 0, buf[0]&repFlagPending != 0
	if buf[0]&repFlagError != 0 {
		r.Err = string(buf[c.Off:])
	}
	return nil
}

// The verdict frame: the kind byte, then the final Stats (stop, in
// core's stats layout) or the error text (abort).
func appendVerdict(dst []byte, v core.Verdict) []byte {
	dst = append(dst, byte(v.Kind))
	if v.Kind == core.VerdictStop {
		return core.AppendStats(dst, v.Stats)
	}
	return append(dst, v.Abort...)
}

func decodeVerdict(buf []byte, k int) (core.Verdict, error) {
	if len(buf) < 1 {
		return core.Verdict{}, fmt.Errorf("node: empty verdict")
	}
	v := core.Verdict{Kind: core.VerdictKind(buf[0])}
	switch v.Kind {
	case core.VerdictContinue:
	case core.VerdictStop:
		var err error
		if v.Stats, err = core.DecodeStats(buf[1:], k); err != nil {
			return core.Verdict{}, fmt.Errorf("node: decode final stats: %w", err)
		}
	case core.VerdictAbort:
		v.Abort = string(buf[1:])
	default:
		return core.Verdict{}, fmt.Errorf("node: unknown verdict kind %d", v.Kind)
	}
	return v, nil
}

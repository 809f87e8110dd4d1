// Package node is core.Drive's socket link: it connects ONE machine of
// a cluster to peers that live in other processes (or, for RunLocal and
// the job service, behind their own listeners in this one) over the tcp
// transport's socket mesh. cmd/kmnode is its CLI.
//
// The superstep loop is core.Drive, the same one that runs the
// in-process cluster; what this package adds is how a superstep is
// closed over sockets. Each node finishes the superstep's exchange with
// its peers, then reports its core.Row — ⟨done, pending, messages,
// per-link word counts, error⟩ — to the coordinator (machine 0), which
// rules through the same core.Coordinator as the in-process rendezvous
// and broadcasts the verdict: continue, stop (carrying the final Stats),
// or abort. A run over sockets therefore reports the same Rounds and
// Words as the same machines in one process; the conversion results of
// Klauck et al. (arXiv:1311.6209) are about precisely this
// substrate-independence, and the integration tests assert it.
package node

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// Config describes one node's place in the cluster.
type Config struct {
	// ID is this node's machine ID; K the cluster size.
	ID, K int
	// ListenAddr is this node's listen address ("host:port"; port 0
	// picks a free port, useful only when peers learn it out of band).
	ListenAddr string
	// Peers holds the k listen addresses in machine-ID order.
	Peers []string
	// Bandwidth is the per-link capacity in words per round.
	Bandwidth int
	// Seed derives every machine's random stream, exactly like
	// core.Config.Seed: node i draws from rng.NewStream(Seed, i).
	Seed uint64
	// MaxSupersteps aborts runaway algorithms; 0 means core.Drive's default.
	MaxSupersteps int
	// DropPerSuperstep disables Stats.PerSuperstep retention on the
	// coordinator, exactly like core.Config.DropPerSuperstep; only the
	// coordinator's value matters (the field travels inside the final
	// stop verdict, so all nodes still return identical Stats).
	DropPerSuperstep bool
	// DialTimeout bounds mesh construction; 0 means tcp's default.
	DialTimeout time.Duration
	// Context cancels the run: the superstep loop observes it between
	// phases and it bounds every socket operation, so canceling it
	// tears the node down promptly with a wrapped context error. nil
	// means Background.
	Context context.Context
	// SuperstepTimeout bounds each whole superstep — begin, the
	// machine's Step, finish, report, verdict — because the wire is live
	// while the machine computes: a peer process that crashes or wedges,
	// or a Step that outlasts the timeout, surfaces as a
	// machine-attributed error within the timeout on every surviving
	// node instead of hanging the cluster. 0 means no deadline.
	// Happy-path Stats and outputs are unaffected.
	SuperstepTimeout time.Duration
	// Recorder, when non-nil, receives wall-clock phase spans from this
	// node's superstep loop — compute (the Step call), exchange (this
	// node's data-plane barrier), and barrier (the report/verdict
	// control round), all with Machine = ID — and is installed on the
	// endpoint so its pipeline workers record per-peer frame spans too.
	// Same contract as core.Config.Recorder: concurrency-safe,
	// allocation-free, nil keeps the loop on its span-free path. In
	// RunLocal all k machines share the one recorder, yielding a
	// cluster-wide timeline.
	Recorder obs.Recorder
	// Checkpoint is the checkpoint policy, as in core.Config: off by
	// default; when Every > 0 the machine must implement
	// core.Snapshotter, and Resume starts the run from the sink's latest
	// cut after a ctrlResume agreement round (checkpoint.go). Only the
	// k machines of one process can complete a cut.
	Checkpoint core.CheckpointPolicy
}

func (cfg Config) validate() error {
	if cfg.K < 2 || cfg.ID < 0 || cfg.ID >= cfg.K {
		return fmt.Errorf("node: invalid id %d for k=%d", cfg.ID, cfg.K)
	}
	if cfg.Bandwidth < 1 {
		return fmt.Errorf("node: need Bandwidth >= 1 word/round, got %d", cfg.Bandwidth)
	}
	return nil
}

// Run executes one machine of the cluster: listen, dial the mesh, then
// drive supersteps until the coordinator calls the computation
// complete. The returned Stats are the full cluster statistics (the
// coordinator computes them and ships them in the stop verdict), so
// every node of a successful run returns identical Stats.
func Run[M any](cfg Config, m core.Machine[M], codec wire.Codec[M]) (*core.Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ep, err := tcp.Listen[M](cfg.ID, cfg.K, cfg.ListenAddr, codec)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	if err := ep.Connect(cfg.Peers, cfg.DialTimeout); err != nil {
		return nil, err
	}
	return runNode(cfg, ep, m, 0, codec, core.NewAssembler(cfg.Checkpoint, cfg.K))
}

// RunLocal spawns the full k-machine cluster over loopback TCP inside
// one process — every machine gets its own listener, dials every peer,
// and is driven over its own endpoint (kmnode's -local mode). The
// factory is called once per machine, like core.NewCluster's. cfg is a
// template: ID, ListenAddr, and Peers are ignored (every machine gets
// its own loopback endpoint); everything else applies to all. It is
// validated before any listener opens. The WireStats are the k
// endpoints' summed frames and bytes, control plane included.
func RunLocal[M any](cfg Config, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	if err := cfg.validate(); err != nil {
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
func runCluster[M any](cfg Config, eps []*tcp.Endpoint[M], job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	asm := core.NewAssembler(cfg.Checkpoint, cfg.K)
	// Factory calls stay sequential, matching core.NewCluster's contract
	// (factories may append to shared slices without locking).
	machines := make([]core.Machine[M], cfg.K)
	for i := range machines {
		machines[i] = factory(core.MachineID(i))
	}
	stats, err := core.DriveAll(cfg.K, func(i int) (*core.Stats, error) {
		mcfg := cfg
		mcfg.ID = i
		return runNode(mcfg, eps[i], machines[i], job, codec, asm)
	}, func(i int, _ error) { eps[i].Close() })
	var w transport.WireStats
	for _, ep := range eps {
		w = w.Plus(ep.WireStats())
	}
	return stats, w, err
}

// runNode drives one machine over its connected endpoint: the optional
// job-begin handshake and resume round, core.Drive, the optional job-end
// handshake. On an error it returns the coordinator's partial Stats
// (nil on the other machines); the caller closes the endpoint.
func runNode[M any](cfg Config, ep *tcp.Endpoint[M], m core.Machine[M], job uint64, codec wire.Codec[M], asm *core.Assembler) (*core.Stats, error) {
	if cfg.Recorder != nil {
		ep.SetRecorder(cfg.Recorder)
	}
	link := &socketLink[M]{ep: ep, id: cfg.ID, k: cfg.K, rec: cfg.Recorder}
	d := core.Driver[M]{ID: cfg.ID, K: cfg.K, MaxSupersteps: cfg.MaxSupersteps,
		Context: cfg.Context, SuperstepTimeout: cfg.SuperstepTimeout, Recorder: cfg.Recorder,
		Machine: m, RNG: rng.NewStream(cfg.Seed, uint64(cfg.ID)), Link: link,
		Checkpoint: asm, Codec: codec}
	if cfg.ID == 0 {
		link.coord = core.NewCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
		link.rows = make([]*core.Row, cfg.K)
		for i := range link.rows {
			link.rows[i] = &core.Row{Words: make([]int64, cfg.K)}
		}
		d.Coord = link.coord
	}
	if job != 0 {
		if err := ctrlRound(cfg, ep, ctrlJobBegin, job); err != nil {
			return link.coord.Stats(), fmt.Errorf("node: machine %d job %d begin: %w", cfg.ID, job, err)
		}
	}
	if asm != nil && cfg.Checkpoint.Resume {
		var err error
		if d.Resume, err = resumeCut(cfg, ep, asm.Sink()); err != nil {
			return link.coord.Stats(), err
		}
	}
	stats, err := core.Drive(d)
	if err != nil {
		return link.coord.Stats(), err
	}
	if job != 0 {
		if err := jobEnd(cfg, ep, job); err != nil {
			return link.coord.Stats(), fmt.Errorf("node: machine %d job %d end: %w", cfg.ID, job, err)
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

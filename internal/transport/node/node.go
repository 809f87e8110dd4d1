// Package node is the standalone k-machine runtime: it drives ONE
// machine of a cluster whose peers live in other processes, connected
// by the tcp transport's socket mesh. cmd/kmnode is its CLI.
//
// Where core.Cluster steps all k machines in one process and barriers
// in memory, this runtime distributes the loop itself: each node opens
// the superstep on its endpoint, steps its machine (which may emit
// finished per-peer batches mid-compute), finishes the superstep's
// exchange with its peers over TCP, and then reports ⟨done, emitted, per-link
// word counts⟩ to the coordinator (machine 0). The coordinator runs
// exactly core's accounting arithmetic on the assembled link-load
// matrix — max(1, ceil(max-link-words/B)) rounds per superstep — and
// broadcasts a verdict: continue, stop (carrying the final Stats), or
// abort. A run over this runtime therefore reports the same Rounds and
// Words as the same machines under core.Cluster on the loopback
// transport; the conversion results of Klauck et al. (arXiv:1311.6209)
// are about precisely this substrate-independence, and the integration
// tests assert it.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// MaxSupersteps aborts runaway algorithms; 0 means core's default.
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
	// Checkpoint is the checkpoint/recovery policy (checkpoint.go). Off
	// by default; when Every > 0 the machine must implement
	// core.Snapshotter.
	Checkpoint CheckpointConfig
}

func (cfg *Config) validate() error {
	if cfg.K < 2 || cfg.ID < 0 || cfg.ID >= cfg.K {
		return fmt.Errorf("node: invalid id %d for k=%d", cfg.ID, cfg.K)
	}
	if cfg.Bandwidth < 1 {
		return fmt.Errorf("node: need Bandwidth >= 1 word/round, got %d", cfg.Bandwidth)
	}
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 1 << 20
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
	if cfg.Recorder != nil {
		ep.SetRecorder(cfg.Recorder)
	}
	return runLoop(cfg, ep, m, codec, newAssembler(cfg))
}

// RunLocal spawns the full k-machine cluster over loopback TCP inside
// one process — every machine gets its own listener, dials every peer,
// and runs the standalone superstep loop (kmnode's -local mode). The
// factory is called once per machine, like core.NewCluster's. cfg is a
// template: ID, ListenAddr, and Peers are ignored (every machine gets
// its own loopback endpoint); K, Bandwidth, Seed, MaxSupersteps,
// DropPerSuperstep, Context, and SuperstepTimeout apply to all.
func RunLocal[M any](cfg Config, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, error) {
	k := cfg.K
	ck := newAssembler(cfg)
	eps, err := tcp.NewLoopbackMesh[M](k, codec)
	if err != nil {
		return nil, err
	}
	if cfg.Recorder != nil {
		for _, ep := range eps {
			ep.SetRecorder(cfg.Recorder)
		}
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	// Factory calls stay sequential, matching core.NewCluster's contract
	// (factories may append to shared slices without locking).
	machines := make([]core.Machine[M], k)
	for i := 0; i < k; i++ {
		machines[i] = factory(core.MachineID(i))
	}
	stats := make([]*core.Stats, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mcfg := cfg
			mcfg.ID = i
			mcfg.ListenAddr, mcfg.Peers = "", nil
			if err := mcfg.validate(); err == nil {
				stats[i], errs[i] = runLoop(mcfg, eps[i], machines[i], codec, ck)
			} else {
				errs[i] = err
			}
			if errs[i] != nil {
				// A node that bails early must tear its endpoint down
				// right away: peers may be parked in reads on its
				// connections with no (or a long) deadline, and the
				// close is what unwedges them immediately (standalone
				// node.Run gets this from its deferred Close; here all
				// k share the process).
				eps[i].Close()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Prefer the coordinator's error: it aggregates the cluster
			// view, and on an abort every node returns the same message.
			if errs[0] != nil {
				return stats[0], errs[0]
			}
			return stats[0], err
		}
	}
	return stats[0], nil
}

// runLoop is the distributed mirror of core.Cluster.RunOn: it observes
// cfg.Context between phases and bounds every superstep's socket
// operations with cfg.SuperstepTimeout, so a crashed or wedged peer
// process surfaces as a machine-attributed error within the timeout on
// this node rather than wedging it forever.
func runLoop[M any](cfg Config, ep *tcp.Endpoint[M], m core.Machine[M], codec wire.Codec[M], ck *assembler) (*core.Stats, error) {
	r := rng.NewStream(cfg.Seed, uint64(cfg.ID))
	runCtx := cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	var coord *coordinator
	if cfg.ID == 0 {
		coord = newCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep)
	}
	var inbox []core.Envelope[M]
	var snap core.Snapshotter
	var ckPart []byte // checkpoint part encode scratch, reused
	if ck != nil {
		var ok bool
		if snap, ok = m.(core.Snapshotter); !ok {
			return nil, fmt.Errorf("node: machine %d (%T) does not implement core.Snapshotter; checkpointing needs SnapshotState/RestoreState", cfg.ID, m)
		}
		if codec == nil {
			return nil, fmt.Errorf("node: machine %d checkpointing needs a message codec", cfg.ID)
		}
	}
	start := 0
	if ck != nil && cfg.Checkpoint.Resume {
		var err error
		if start, inbox, err = restoreNode(cfg, ep, runCtx, ck.sink, r, snap, codec, coord); err != nil {
			ep.Close()
			return nil, err
		}
	}
	linkScratch := make([]int64, cfg.K) // per-superstep link row, reused
	var repBuf []byte                   // report encode scratch, reused
	ctx := &core.StepContext{Self: core.MachineID(cfg.ID), K: cfg.K, RNG: r}
	em := core.NewEmitter(ep.StreamBatch, core.MachineID(cfg.ID), cfg.K)
	em.Bind(ctx)
	for step := start; ; step++ {
		if step >= cfg.MaxSupersteps {
			// Every node shares MaxSupersteps and steps in lockstep, so
			// all abort on the same superstep; only the coordinator has
			// the (partial) statistics.
			return coordStats(coord), core.ErrMaxSupersteps
		}
		if err := runCtx.Err(); err != nil {
			// Tear our endpoint down before leaving: peers parked on
			// our connections unblock immediately instead of waiting
			// out their own deadlines.
			ep.Close()
			return coordStats(coord), fmt.Errorf("node: machine %d canceled before superstep %d: %w", cfg.ID, step, err)
		}

		// The per-superstep deadline must already be running when the
		// first eager batch hits the wire, so the superstep context is
		// created here, around compute; BeginSuperstep arms the endpoint
		// (and releases its readers) before the Step call.
		sctx, cancel := runCtx, context.CancelFunc(nil)
		if cfg.SuperstepTimeout > 0 {
			sctx, cancel = context.WithTimeout(runCtx, cfg.SuperstepTimeout)
		}
		em.Reset()
		if err := ep.BeginSuperstep(sctx, step); err != nil {
			if cancel != nil {
				cancel()
			}
			ep.Close()
			return coordStats(coord), err
		}

		ctx.Superstep = step
		var t0 int64
		if cfg.Recorder != nil {
			t0 = obs.Now()
		}
		out, done, stepErr := stepSafely(m, ctx, inbox)
		if cfg.Recorder != nil {
			cfg.Recorder.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
				Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseCompute})
		}
		if err := em.Err(); err != nil {
			// A failed eager send is a transport failure, not an
			// algorithm error: the endpoint is (or is about to be)
			// dead, so the report/verdict protocol cannot carry the
			// news. Tear down and return the attributed error, like
			// any other exchange failure.
			if cancel != nil {
				cancel()
			}
			ep.Close()
			return coordStats(coord), fmt.Errorf("node: machine %d emit failed in superstep %d: %w", cfg.ID, step, err)
		}
		for i := range linkScratch {
			linkScratch[i] = 0
		}
		rep := report{done: done, emitted: len(out) > 0, linkWords: linkScratch}
		if stepErr == nil {
			stepErr = validateAndAccount(cfg, out, &rep, em, step)
		}
		// Fold the eager emissions into the same report the rest
		// envelopes filled: order-independent sums, so the coordinator's
		// accounting does not depend on how an envelope travelled.
		msgs, any := em.AccountInto(rep.linkWords)
		rep.messages += msgs
		rep.emitted = rep.emitted || any
		if stepErr != nil {
			rep.err = stepErr.Error()
			out = nil // still participate in the exchange so peers don't hang
		}

		repBuf = rep.appendEncode(repBuf[:0], step)
		v, next, err := superstepRound(cfg, ep, coord, sctx, step, repBuf, out)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			// When the run context died mid-superstep the transport
			// error is just the shrapnel of the teardown (closed
			// connections, aborted reads); report the cancellation as
			// the cause so callers can errors.Is it.
			if cErr := runCtx.Err(); cErr != nil {
				err = fmt.Errorf("node: machine %d canceled in superstep %d: %w (teardown: %v)", cfg.ID, step, cErr, err)
			}
			return coordStats(coord), err
		}
		switch v.kind {
		case verdictContinue:
			inbox = next
			if ck != nil && (step+1)%ck.every == 0 {
				// The cut: the coordinator's Stats include this superstep
				// and inbox is exactly what step+1 consumes.
				var err error
				if ckPart, err = captureNode(ck, cfg, step, r, snap, inbox, codec, coord, ckPart); err != nil {
					ep.Close()
					return coordStats(coord), fmt.Errorf("node: machine %d checkpoint at superstep %d: %w", cfg.ID, step, err)
				}
			}
		case verdictStop:
			return v.stats, nil
		case verdictAbort:
			return coordStats(coord), errors.New(v.errMsg)
		}
	}
}

// superstepRound runs the closing cross-machine phases of one superstep
// — finish, report, verdict — under sctx, the per-superstep context
// runLoop created around compute. The
// failure protocol: a node whose Step failed still exchanges (an empty
// batch) and carries the error in its report, so the coordinator learns
// of it and broadcasts an abort verdict that every surviving machine
// returns as the same error; a node that dies outright is detected by
// its peers' bounded reads (exchange) or the coordinator's bounded
// CollectReports, and the coordinator then broadcasts the abort best
// effort over whatever control connections remain before failing
// itself. Transport-level failures arrive as *transport.MachineError
// with machine/superstep attribution from the tcp layer.
//
// repPayload is the node's encoded report; it is recycled scratch owned
// by runLoop, which is safe because the endpoint either writes it out
// immediately or (on the coordinator) queues it only until the
// CollectReports of this same superstep pops it.
func superstepRound[M any](cfg Config, ep *tcp.Endpoint[M], coord *coordinator, sctx context.Context, step int, repPayload []byte, out []core.Envelope[M]) (verdict, []core.Envelope[M], error) {
	// Phase spans mirror core's engine, but per node: the exchange span
	// is this node's data-plane barrier (Machine = ID, not the cluster's
	// -1 — each node performs its own), and the report/verdict control
	// round below plays the role of core's barrier wait, so it records
	// as PhaseBarrier.
	rec := cfg.Recorder
	var t0 int64
	if rec != nil {
		t0 = obs.Now()
	}
	next, err := ep.FinishSuperstep(step, out)
	if rec != nil {
		rec.Record(obs.Span{Start: t0, Dur: obs.Now() - t0,
			Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseExchange})
	}
	if err != nil {
		return verdict{}, nil, err
	}
	var b0 int64
	if rec != nil {
		b0 = obs.Now()
		defer func() {
			rec.Record(obs.Span{Start: b0, Dur: obs.Now() - b0,
				Machine: int32(cfg.ID), Peer: -1, Superstep: int32(step), Phase: obs.PhaseBarrier})
		}()
	}
	if err := ep.SendToCoordinator(sctx, repPayload); err != nil {
		return verdict{}, nil, fmt.Errorf("node: machine %d report (superstep %d): %w", cfg.ID, step, err)
	}

	var verdictPayload []byte
	if coord != nil {
		reports, err := ep.CollectReports(sctx, step)
		if err != nil {
			// A report that never arrived means a peer died between the
			// exchange and its report. Propagate the abort to the
			// survivors — best effort, over whatever control
			// connections still work — so they return an attributed
			// error instead of waiting out their own deadlines.
			abortBroadcast(ep, sctx, err)
			return verdict{}, nil, err
		}
		verdictPayload, err = coord.process(step, reports)
		if err != nil {
			abortBroadcast(ep, sctx, err)
			return verdict{}, nil, err
		}
		if err := ep.Broadcast(sctx, verdictPayload); err != nil {
			return verdict{}, nil, err
		}
	} else {
		var err error
		verdictPayload, err = ep.ReceiveVerdict(sctx)
		if err != nil {
			// No verdict within the deadline: the coordinator (or the
			// path to it) is gone. Attribute the wait to machine 0 —
			// unless the tcp layer already attributed a more specific
			// culprit.
			var me *transport.MachineError
			if !errors.As(err, &me) {
				err = &transport.MachineError{Machine: 0, Superstep: step,
					Err: fmt.Errorf("node: machine %d verdict wait: %w", cfg.ID, err)}
			}
			return verdict{}, nil, err
		}
	}

	v, err := decodeVerdict(verdictPayload, cfg.K)
	if err != nil {
		return verdict{}, nil, err
	}
	return v, next, nil
}

// abortBroadcast ships an abort verdict to every peer, best effort.
// The coordinator reaches here precisely when the superstep context has
// failed (an expired deadline is the common case), so the writes run
// under a fresh short deadline — reusing the dead context would make
// every abort write fail instantly and leave the survivors to time out
// blaming the coordinator instead of the real culprit.
func abortBroadcast[M any](ep *tcp.Endpoint[M], sctx context.Context, cause error) {
	actx, cancel := context.WithTimeout(context.WithoutCancel(sctx), 2*time.Second)
	defer cancel()
	_ = ep.Broadcast(actx, encodeAbort(cause.Error()))
}

// coordStats returns the coordinator's (possibly partial) statistics
// for error returns, finalized like core's deferred stats.finalize() so
// MaxRecvWords is consistent on every path.
func coordStats(c *coordinator) *core.Stats {
	if c == nil {
		return nil
	}
	c.finalize()
	return c.stats
}

// stepSafely runs one Step with core's panic recovery semantics.
func stepSafely[M any](m core.Machine[M], ctx *core.StepContext, inbox []core.Envelope[M]) (out []core.Envelope[M], done bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("node: machine %d panicked in superstep %d: %v", ctx.Self, ctx.Superstep, rec)
		}
	}()
	out, done = m.Step(ctx, inbox)
	return out, done, nil
}

// validateAndAccount mirrors core's per-envelope validation and
// From-stamping, and fills the report's link-word vector (self links
// are free, exactly like core). It also enforces the no-mixing rule: a
// peer that already received an emitted batch this superstep must not
// reappear in the rest envelopes.
func validateAndAccount[M any](cfg Config, out []core.Envelope[M], rep *report, em *core.Emitter[M], step int) error {
	for j := range out {
		e := &out[j]
		if e.To < 0 || int(e.To) >= cfg.K {
			return fmt.Errorf("node: machine %d sent to invalid machine %d", cfg.ID, e.To)
		}
		if e.Words < 0 {
			return fmt.Errorf("node: machine %d sent negative-size envelope", cfg.ID)
		}
		e.From = core.MachineID(cfg.ID)
		if int(e.To) != cfg.ID {
			if em.EmittedTo(e.To) {
				return fmt.Errorf("node: machine %d returned envelopes for machine %d after emitting a batch to it in superstep %d", cfg.ID, e.To, step)
			}
			rep.linkWords[e.To] += int64(e.Words)
			rep.messages++
		}
	}
	return nil
}

// report is one node's per-superstep account to the coordinator.
type report struct {
	done      bool
	emitted   bool
	messages  int64
	linkWords []int64 // words this node sent to each machine (self = 0)
	err       string
}

const (
	repFlagDone = 1 << iota
	repFlagEmitted
	repFlagError
)

// appendEncode serialises the report into dst, which callers recycle
// across supersteps (runLoop ships one report per superstep on the hot
// path of every node).
func (r *report) appendEncode(dst []byte, step int) []byte {
	var flags byte
	if r.done {
		flags |= repFlagDone
	}
	if r.emitted {
		flags |= repFlagEmitted
	}
	if r.err != "" {
		flags |= repFlagError
	}
	buf := append(dst, flags)
	buf = wire.AppendUvarint(buf, uint64(step))
	buf = wire.AppendUvarint(buf, uint64(r.messages))
	buf = wire.AppendUvarint(buf, uint64(len(r.linkWords)))
	for _, w := range r.linkWords {
		buf = wire.AppendUvarint(buf, uint64(w))
	}
	if r.err != "" {
		buf = append(buf, r.err...)
	}
	return buf
}

// decodeReportInto decodes a report into rep, reusing rep.linkWords
// when it has the capacity — the coordinator decodes k reports per
// superstep into the same recycled structs.
func decodeReportInto(rep *report, buf []byte, wantStep int) error {
	if len(buf) < 1 {
		return fmt.Errorf("node: empty report")
	}
	flags := buf[0]
	pos := 1
	var hdr [3]uint64
	for i := range hdr {
		v, n, err := wire.Uvarint(buf[pos:])
		if err != nil {
			return fmt.Errorf("node: corrupt report: %w", err)
		}
		hdr[i] = v
		pos += n
	}
	if int(hdr[0]) != wantStep {
		return fmt.Errorf("node: report for superstep %d, want %d", hdr[0], wantStep)
	}
	rep.done = flags&repFlagDone != 0
	rep.emitted = flags&repFlagEmitted != 0
	rep.messages = int64(hdr[1])
	n := int(hdr[2])
	if n > len(buf)-pos {
		// Each link word costs at least one byte: reject a corrupt count
		// before sizing the slice by it.
		return fmt.Errorf("node: report claims %d links in %d bytes", n, len(buf)-pos)
	}
	if cap(rep.linkWords) < n {
		rep.linkWords = make([]int64, n)
	}
	rep.linkWords = rep.linkWords[:n]
	for i := range rep.linkWords {
		v, n, err := wire.Uvarint(buf[pos:])
		if err != nil {
			return fmt.Errorf("node: corrupt report: %w", err)
		}
		rep.linkWords[i] = int64(v)
		pos += n
	}
	rep.err = ""
	if flags&repFlagError != 0 {
		rep.err = string(buf[pos:])
	}
	return nil
}

// coordinator aggregates reports into core-identical Stats. The
// linkWords/recvS/sentS scratch is reused across supersteps, mirroring
// the allocation-free accounting of core's engine.
type coordinator struct {
	k                int
	bandwidth        int
	dropPerSuperstep bool
	stats            *core.Stats
	linkWords        []int64
	recvS, sentS     []int64
	reports          []*report
}

func newCoordinator(k, bandwidth int, dropPerSuperstep bool) *coordinator {
	c := &coordinator{
		k:                k,
		bandwidth:        bandwidth,
		dropPerSuperstep: dropPerSuperstep,
		stats: &core.Stats{
			RecvWords: make([]int64, k),
			SentWords: make([]int64, k),
		},
		linkWords: make([]int64, k*k),
		recvS:     make([]int64, k),
		sentS:     make([]int64, k),
		reports:   make([]*report, k),
	}
	for i := range c.reports {
		c.reports[i] = &report{linkWords: make([]int64, 0, k)}
	}
	return c
}

// process runs core's accounting arithmetic on one superstep's reports
// and returns the verdict to broadcast.
func (c *coordinator) process(step int, payloads [][]byte) ([]byte, error) {
	reports := c.reports
	for i, p := range payloads {
		rep := reports[i]
		if err := decodeReportInto(rep, p, step); err != nil {
			return nil, fmt.Errorf("node: coordinator report from %d: %w", i, err)
		}
		if len(rep.linkWords) != c.k {
			return nil, fmt.Errorf("node: report from %d has %d links, want %d", i, len(rep.linkWords), c.k)
		}
	}
	for i, rep := range reports {
		if rep.err != "" {
			return encodeAbort(fmt.Sprintf("machine %d: %s", i, rep.err)), nil
		}
	}

	// Assemble the k×k link-load matrix from the per-node rows and hand
	// it to the exact accounting function core.RunOn uses — the shared
	// arithmetic is what makes the two substrates' Stats bit-identical
	// by construction. Every row is fully overwritten, so the reused
	// scratch matrix needs no zeroing between supersteps.
	var messages int64
	allDone, pending := true, false
	for i, rep := range reports {
		if !rep.done {
			allDone = false
		}
		if rep.emitted {
			pending = true
		}
		copy(c.linkWords[i*c.k:(i+1)*c.k], rep.linkWords)
		messages += rep.messages
	}
	if allDone && !pending {
		// Quiescent: like core, the final silent superstep is free.
		c.finalize()
		return encodeStop(c.stats), nil
	}
	ss := core.AccountSuperstep(c.k, c.bandwidth, c.linkWords, messages, c.recvS, c.sentS)
	for i := 0; i < c.k; i++ {
		c.stats.RecvWords[i] += c.recvS[i]
		c.stats.SentWords[i] += c.sentS[i]
	}
	c.stats.Rounds += ss.Rounds
	c.stats.Supersteps++
	c.stats.Messages += ss.Messages
	c.stats.Words += ss.Words
	if !c.dropPerSuperstep {
		c.stats.PerSuperstep = append(c.stats.PerSuperstep, ss)
	}
	return []byte{verdictContinue}, nil
}

func (c *coordinator) finalize() {
	for _, w := range c.stats.RecvWords {
		if w > c.stats.MaxRecvWords {
			c.stats.MaxRecvWords = w
		}
	}
}

// Verdict kinds (first payload byte).
const (
	verdictContinue = byte(iota)
	verdictStop
	verdictAbort
)

type verdict struct {
	kind   byte
	stats  *core.Stats
	errMsg string
}

func encodeStop(stats *core.Stats) []byte {
	return core.AppendStats([]byte{verdictStop}, stats)
}

func encodeAbort(msg string) []byte {
	return append([]byte{verdictAbort}, msg...)
}

func decodeVerdict(buf []byte, k int) (verdict, error) {
	if len(buf) < 1 {
		return verdict{}, fmt.Errorf("node: empty verdict")
	}
	v := verdict{kind: buf[0]}
	switch v.kind {
	case verdictContinue:
	case verdictStop:
		var err error
		if v.stats, err = core.DecodeStats(buf[1:], k); err != nil {
			return verdict{}, fmt.Errorf("node: decode final stats: %w", err)
		}
	case verdictAbort:
		v.errMsg = string(buf[1:])
	default:
		return verdict{}, fmt.Errorf("node: unknown verdict kind %d", v.kind)
	}
	return v, nil
}

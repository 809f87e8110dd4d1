// Package node is core.Drive's socket link: it connects ONE machine of
// a cluster to peers that live in other processes (Run, given the
// process's Place) or, on a LocalMesh, in this one, joined by in-memory
// connections. Either way a machine is driven over a tcp.Endpoint
// attached to its mesh for one job, and every batch it ships names that
// job: a single run (Run, RunLocal) is job 0, and the job service
// numbers its jobs (RunJobLocal) from 1. cmd/kmnode is its CLI.
//
// The superstep loop is core.Drive and the run is a core.Config, the
// same ones as the in-process cluster's; what this package adds is how
// a superstep is closed over sockets. Each node ships its core.Row —
// ⟨done, pending, messages, per-link word counts, error⟩ — to every
// peer inside its batch frame, so the exchange alone hands every node
// all k rows, and every node rules them through its own replica of the
// core.Coordinator the in-process rendezvous uses: the same rows give
// the same continue, stop or abort, and the same Stats, on every node,
// with no round through a coordinator. Nor is there one around the
// loop: the job of a standing mesh and the superstep a resumed run
// starts at are stamped on every batch, so a node that disagrees fails
// its peers' first read. A run over sockets therefore
// reports the same Rounds and Words as the same machines in one
// process; the conversion results of Klauck et al. (arXiv:1311.6209)
// need only these point-to-point links, and the integration tests
// assert it.
package node

import (
	"context"
	"fmt"
	"math"
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
// Run: RunLocal and the job service give every machine its own endpoint
// on a LocalMesh.
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
// the mesh, attach job 0 to it, then drive supersteps until the rows
// call the computation complete. The returned Stats are the full
// cluster statistics, which every node accounts from the same rows, so
// every node of a successful run returns identical Stats. It refuses
// cfg.Checkpoint.Every > 0: a cut needs all k parts in one process
// (core.Assembler), and this one holds only its own.
func Run[M any](cfg core.Config, at Place, m core.Machine[M], codec wire.Codec[M]) (*core.Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if at.ID < 0 || at.ID >= cfg.K {
		return nil, fmt.Errorf("node: invalid id %d for k=%d", at.ID, cfg.K)
	}
	if cfg.Checkpoint.Every > 0 {
		return nil, fmt.Errorf("node: machine %d of a multi-process cluster can never complete a cut: checkpointing needs all k machines in one process", at.ID)
	}
	mesh, err := tcp.ListenMesh(at.ID, cfg.K, at.Listen)
	if err != nil {
		return nil, err
	}
	defer mesh.Close()
	if err := mesh.Connect(at.Peers, at.DialTimeout); err != nil {
		return nil, err
	}
	ep, err := tcp.Attach(mesh, codec, 0)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	return runNode(cfg, at.ID, ep, m, codec)
}

// RunLocal spawns the full k-machine cluster inside one process, as
// kmnode's -local mode does: every machine is driven over its own
// endpoint, every ordered pair joined by an in-memory connection
// (tcp.NewLoopbackMesh), job 0 on a LocalMesh of its own. The factory
// is called once per machine, like core.NewCluster's, and cfg is
// validated before any mesh is built.
// The WireStats are the k endpoints' summed frames and bytes.
func RunLocal[M any](cfg core.Config, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, transport.WireStats{}, err
	}
	lm, err := NewLocalMesh(cfg.K)
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	defer lm.Close()
	return RunJobLocal(lm, cfg, 0, codec, factory)
}

// runNode drives machine id of a run without checkpoints over its
// connected endpoint, from superstep 0 (core.Drive). On an error it
// returns this node's partial Stats; the caller closes the endpoint.
func runNode[M any](cfg core.Config, id int, ep *tcp.Endpoint[M], m core.Machine[M], codec wire.Codec[M]) (*core.Stats, error) {
	link := newSocketLink(cfg, id, ep)
	stats, err := core.Drive(core.Driver[M]{Config: cfg, ID: id, Machine: m, Link: link, Codec: codec})
	if err != nil {
		return link.coord.Stats(), err
	}
	return stats, nil
}

// socketLink is core.Drive's link over one tcp.Endpoint. A superstep
// is closed by the data-plane exchange alone: this node's row rides in
// its batch frame to every peer, and once FinishSuperstep has every
// peer's frame, the node rules the k rows itself.
//
// The failure protocol: a machine whose Step failed still exchanges (an
// empty batch) and carries the error in its row, so every node rules
// the same abort and returns the same message (the first error in
// machine order). A machine that dies outright — machine 0 included —
// is detected by its peers' bounded reads of its frame. Failures
// arrive as *transport.MachineError with machine/superstep attribution
// from the tcp layer; an unsound row is attributed to its sender the
// same way.
type socketLink[M any] struct {
	ep  *tcp.Endpoint[M]
	id  int
	rec obs.Recorder
	// coord is this node's replica of the ruling; rows are the peers'
	// decoded rows, rows[id] this node's own.
	coord *core.Coordinator
	rows  []*core.Row
	// buf is the row encode scratch; the endpoint drops it once
	// FinishSuperstep returns.
	buf []byte
}

// newSocketLink joins machine id to the run cfg describes over ep, and
// records ep's spans on cfg.Recorder.
func newSocketLink[M any](cfg core.Config, id int, ep *tcp.Endpoint[M]) *socketLink[M] {
	if cfg.Recorder != nil {
		ep.SetRecorder(cfg.Recorder)
	}
	l := &socketLink[M]{ep: ep, id: id, rec: cfg.Recorder,
		coord: core.NewCoordinator(cfg.K, cfg.Bandwidth, cfg.DropPerSuperstep), rows: make([]*core.Row, cfg.K)}
	for i := range l.rows {
		if i != id {
			l.rows[i] = &core.Row{Words: make([]int64, cfg.K)}
		}
	}
	return l
}

func (l *socketLink[M]) Begin(ctx context.Context, step int) error {
	return l.ep.BeginSuperstep(ctx, step)
}

func (l *socketLink[M]) Round(_ context.Context, step int, row *core.Row, batches [][]core.Envelope[M]) (core.Verdict, []core.Envelope[M], error) {
	// The exchange span is this node's data-plane barrier, the barrier
	// span its local ruling, both with Machine = ID: every node performs
	// its own.
	l.buf = appendReport(l.buf[:0], row)
	t0 := l.now()
	next, rows, err := l.ep.FinishSuperstep(step, batches, l.buf)
	l.span(t0, step, obs.PhaseExchange)
	if err != nil {
		return core.Verdict{}, nil, err
	}
	defer l.span(l.now(), step, obs.PhaseBarrier)
	for j, b := range rows {
		if j == l.id {
			l.rows[j] = row
		} else if err := decodeReport(l.rows[j], b); err != nil {
			return core.Verdict{}, nil, l.ep.Reject(j, step, fmt.Errorf("node: machine %d row from %d: %w", l.id, j, err))
		}
	}
	v := l.coord.Rule(l.rows)
	if v.Kind == core.VerdictContinue {
		l.coord.Charge(l.rows) // delivered above, so charged
	}
	return v, next, nil
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

// A row is a core.Row on the wire, carried in its sender's batch frame
// (wire.AppendJobHeader): flags, messages, the link count and that many
// link words, then the error text if flagged.
const (
	repFlagDone = 1 << iota
	repFlagPending
	repFlagError
)

func appendReport(dst []byte, r *core.Row) []byte {
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
	dst = wire.AppendUvarint(dst, uint64(r.Messages))
	dst = wire.AppendUvarint(dst, uint64(len(r.Words)))
	for _, w := range r.Words {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	return append(dst, r.Err...)
}

// decodeReport decodes a row into r, whose Words fix the link count —
// every node decodes its k-1 peers' rows each superstep into the same
// recycled rows. The row's superstep is its frame's, which the reader
// already checked.
func decodeReport(r *core.Row, buf []byte) error {
	if len(buf) < 1 {
		return fmt.Errorf("node: empty row")
	}
	r.Reset()
	c := wire.Cursor{Src: buf, Off: 1}
	msgs := c.Uvarint()
	if n := c.Uvarint(); c.Err == nil && n != uint64(len(r.Words)) {
		return fmt.Errorf("node: row has %d links, want %d", n, len(r.Words))
	}
	// A count above MaxInt64 would convert to a negative charge, which
	// Row.Add drops silently: the row is unsound, not small.
	over := msgs > math.MaxInt64
	r.Messages = int64(msgs)
	for i := range r.Words {
		w := c.Uvarint()
		over = over || w > math.MaxInt64
		r.Add(core.MachineID(i), int64(w))
	}
	if c.Err != nil {
		return fmt.Errorf("node: corrupt row: %w", c.Err)
	}
	if over {
		return fmt.Errorf("node: row count overflows int64")
	}
	r.Done, r.Pending = buf[0]&repFlagDone != 0, buf[0]&repFlagPending != 0
	if buf[0]&repFlagError != 0 {
		r.Err = string(buf[c.Off:])
	}
	return nil
}

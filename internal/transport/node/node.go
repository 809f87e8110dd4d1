// Package node is core.Drive's socket link: it connects ONE machine of
// a cluster to peers that live in other processes (Run, given the
// process's Place) or, on a LocalMesh, behind their own listeners in
// this one. Either way a machine is driven over a tcp.Endpoint attached
// to its mesh for one job, and every batch it ships names that job: a
// single run (Run, RunLocal) is job 0, and the job service numbers its
// jobs (RunJobLocal) from 1. cmd/kmnode is its CLI.
//
// The superstep loop is core.Drive and the run is a core.Config, the
// same ones as the in-process cluster's; what this package adds is how
// a superstep is closed over sockets. Each node ships its core.Row —
// ⟨done, pending, messages, per-link word counts, error⟩ — to every
// peer behind its batch, so the exchange alone hands every node all k
// rows, and every node rules them through its own replica of the
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
	return runNode(cfg, at.ID, ep, m, codec, nil)
}

// RunLocal spawns the full k-machine cluster over loopback TCP inside
// one process — every machine gets its own listener, dials every peer,
// and is driven over its own endpoint (kmnode's -local mode): job 0 on
// a LocalMesh of its own. The factory is called once per machine, like
// core.NewCluster's, and cfg is validated before any listener opens.
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

// runNode drives machine id over its connected endpoint: core.Drive,
// resumed from the run's latest cut when its sink holds one. Every
// node opens that cut itself, and nothing checks the choice before the
// loop starts: nodes that opened different cuts begin at different
// supersteps, and the first batch each reads fails its superstep check
// as an error naming the sender. On an error it returns this node's
// partial Stats; the caller closes the endpoint.
func runNode[M any](cfg core.Config, id int, ep *tcp.Endpoint[M], m core.Machine[M], codec wire.Codec[M], asm *core.Assembler) (*core.Stats, error) {
	if cfg.Recorder != nil {
		ep.SetRecorder(cfg.Recorder)
	}
	link := newSocketLink(cfg, id, ep)
	d := core.Driver[M]{Config: cfg, ID: id, Machine: m, Link: link, Assembler: asm, Codec: codec}
	if id == 0 {
		// Machine 0 alone adds the Stats to a checkpoint, so the stored
		// bytes are those of the in-process link.
		d.Coord = link.coord
	}
	if asm != nil {
		cut, err := asm.LatestCut()
		if err != nil {
			return link.coord.Stats(), fmt.Errorf("node: machine %d resume: %w", id, err)
		}
		// Drive restores machine 0's replica; every other one restores here.
		if cut != nil && id != 0 {
			if err := link.coord.Restore(cut.Stats); err != nil {
				return link.coord.Stats(), err
			}
		}
		d.Resume = cut
	}
	stats, err := core.Drive(d)
	if err != nil {
		return link.coord.Stats(), err
	}
	return stats, nil
}

// socketLink is core.Drive's link over one tcp.Endpoint. A superstep
// is closed by the data-plane exchange alone: this node's row rides
// behind its batch to every peer, and once FinishSuperstep has every
// peer's batch and row, the node rules the k rows itself.
//
// The failure protocol: a machine whose Step failed still exchanges (an
// empty batch) and carries the error in its row, so every node rules
// the same abort and returns the same message (the first error in
// machine order). A machine that dies outright — machine 0 included —
// is detected by its peers' bounded reads of its batch or row. Failures
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

func newSocketLink[M any](cfg core.Config, id int, ep *tcp.Endpoint[M]) *socketLink[M] {
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

func (l *socketLink[M]) Round(_ context.Context, step int, row *core.Row, batches [][]core.Envelope[M], rest []core.Envelope[M]) (core.Verdict, []core.Envelope[M], error) {
	// The exchange span is this node's data-plane barrier, the barrier
	// span its local ruling, both with Machine = ID: every node performs
	// its own.
	l.buf = appendReport(l.buf[:0], step, row)
	t0 := l.now()
	next, rows, err := l.ep.FinishSuperstep(step, batches, rest, l.buf)
	l.span(t0, step, obs.PhaseExchange)
	if err != nil {
		return core.Verdict{}, nil, err
	}
	defer l.span(l.now(), step, obs.PhaseBarrier)
	for j, b := range rows {
		if j == l.id {
			l.rows[j] = row
		} else if err := decodeReport(l.rows[j], b, step); err != nil {
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

// The row frame is a core.Row on the wire: flags, superstep, messages,
// the link count and that many link words, then the error text if
// flagged. The flags byte never reaches 0xFF, so a row is never taken
// for a blame frame.
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

// decodeReport decodes a row frame into r, whose Words fix the link
// count — every node decodes its k-1 peers' rows each superstep into
// the same recycled rows.
func decodeReport(r *core.Row, buf []byte, wantStep int) error {
	if len(buf) < 1 {
		return fmt.Errorf("node: empty row")
	}
	r.Reset()
	c := wire.Cursor{Src: buf, Off: 1}
	step := c.Uvarint()
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
	if int(step) != wantStep {
		return fmt.Errorf("node: row for superstep %d, want %d", step, wantStep)
	}
	r.Done, r.Pending = buf[0]&repFlagDone != 0, buf[0]&repFlagPending != 0
	if buf[0]&repFlagError != 0 {
		r.Err = string(buf[c.Off:])
	}
	return nil
}

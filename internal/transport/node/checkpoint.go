package node

import (
	"context"
	"fmt"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/rng"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// This file is the node runtime's side of core's checkpoint design
// (core/checkpoint.go: the cut, the container, the sink). After every
// Every-th superstep's continue verdict each node encodes its part with
// core.AppendCheckpointPart, the coordinator adds its accumulated Stats,
// and the run's assembler hands the complete container to the sink —
// byte for byte what the in-process cluster stores at that superstep.
//
// Recovery is a re-run: the job scheduler rebuilds the poisoned mesh,
// rebuilds the machines from the deterministic inputs, and re-enters
// with Checkpoint.Resume set. The coordinator reads the sink's latest
// checkpoint and broadcasts its superstep in a pre-loop control round;
// every node restores its part and the loop continues at the following
// superstep, bit-identical to an unkilled run. With an empty sink the
// broadcast says "from zero" and the freshly built machines simply run
// from the start.
//
// The assembler is shared memory: it serves RunLocal and the resident
// job service, where all k node loops live in one process. A
// multi-process standalone run only ever fills one machine's part and
// therefore never completes a checkpoint.

// CheckpointConfig is the checkpoint policy of a node run
// (Config.Checkpoint). The zero value disables checkpointing.
type CheckpointConfig struct {
	// Every captures a checkpoint after every Every-th superstep's
	// continue verdict; 0 disables. Requires the machine to implement
	// core.Snapshotter.
	Every int
	// Sink stores the complete checkpoints; nil means a private in-memory
	// ring. Recovery needs the caller (the job scheduler) to own the sink
	// so it survives the mesh rebuild between attempts.
	Sink core.CheckpointSink
	// Resume restores the sink's latest checkpoint before the first
	// superstep: the coordinator broadcasts its superstep and every node
	// installs its part. With an empty sink the run starts from
	// superstep 0.
	Resume bool
}

// assembler collects the k parts and the coordinator's Stats of the one
// superstep being captured — every node stores its part of s before any
// node can finish s+1, so there is never a second.
type assembler struct {
	every int
	sink  core.CheckpointSink

	mu    sync.Mutex
	step  int // superstep being captured
	have  int
	parts [][]byte
	stats []byte
	buf   []byte // container scratch, reused across captures
}

// newAssembler returns the checkpoint plane of one run, nil when
// checkpointing is off.
func newAssembler(cfg Config) *assembler {
	if cfg.Checkpoint.Every <= 0 {
		return nil
	}
	sink := cfg.Checkpoint.Sink
	if sink == nil {
		sink = core.NewMemorySink(0)
	}
	return &assembler{every: cfg.Checkpoint.Every, sink: sink, step: -1, parts: make([][]byte, cfg.K)}
}

// put copies in machine id's part of the cut after superstep step — the
// coordinator's call also carries the Stats — and stores the container
// once all k have arrived. The sink write runs under the lock: the last
// node to arrive is the only one here.
func (a *assembler) put(step, id int, part []byte, stats *core.Stats) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if step != a.step {
		a.step, a.have = step, 0
	}
	a.parts[id] = append(a.parts[id][:0], part...)
	if stats != nil {
		a.stats = core.AppendStats(a.stats[:0], stats)
	}
	if a.have++; a.have < len(a.parts) {
		return nil
	}
	a.buf = core.AppendCheckpoint(a.buf[:0], step, a.parts, a.stats)
	return a.sink.Put(step, a.buf)
}

// captureNode stores this node's part — and, on the coordinator, the
// accumulated Stats — of the cut after superstep step; inbox is what the
// machine consumes in step+1. scratch is the node's encode buffer,
// returned grown for reuse.
func captureNode[M any](ck *assembler, cfg Config, step int, r *rng.RNG, snap core.Snapshotter, inbox []core.Envelope[M],
	codec wire.Codec[M], coord *coordinator, scratch []byte) ([]byte, error) {
	part, err := core.AppendCheckpointPart(scratch[:0], step, core.MachineID(cfg.ID), r, snap, inbox, codec)
	if err != nil {
		return scratch, err
	}
	var stats *core.Stats
	if coord != nil {
		stats = coord.stats
	}
	return part, ck.put(step, cfg.ID, part, stats)
}

// ctrlResume is the pre-loop control frame of a resuming run: the
// coordinator broadcasts the superstep of the checkpoint every node
// must restore (encoded as step+1, so 0 means "no checkpoint, run from
// the start"). Same value family as the job-lifecycle frames — far from
// the verdict kinds so a misread fails loudly.
const ctrlResume = byte(0xB2)

// restoreNode is the pre-loop round of a resuming run. Every node reads
// the sink's latest checkpoint; the coordinator broadcasts its superstep
// and the others check theirs against it; then each installs its part —
// the coordinator also the Stats. It returns the superstep the loop
// starts at and the inbox that superstep consumes: (0, nil) when the
// sink is empty. A checkpoint of another cluster size is an error, not
// a silent from-zero.
func restoreNode[M any](cfg Config, ep *tcp.Endpoint[M], runCtx context.Context, sink core.CheckpointSink,
	r *rng.RNG, snap core.Snapshotter, codec wire.Codec[M], coord *coordinator) (int, []core.Envelope[M], error) {
	fail := func(err error) (int, []core.Envelope[M], error) {
		return 0, nil, fmt.Errorf("node: machine %d resume: %w", cfg.ID, err)
	}
	step, blob, err := sink.Latest()
	if err != nil {
		return fail(err)
	}
	var parts [][]byte
	var stats []byte
	if blob == nil {
		step = -1
	} else if parts, stats, err = core.OpenCheckpoint(blob, step, cfg.K); err != nil {
		return fail(err)
	}

	hctx, cancel := handshakeCtx(runCtx, cfg)
	defer cancel()
	if cfg.ID == 0 {
		if err := ep.Broadcast(hctx, encodeCtrl(ctrlResume, uint64(step+1))); err != nil {
			return fail(err)
		}
	} else {
		frame, err := ep.ReceiveVerdict(hctx)
		if err != nil {
			return fail(err)
		}
		if v, err := decodeCtrl(frame, ctrlResume); err != nil {
			return fail(err)
		} else if int(v)-1 != step {
			return fail(fmt.Errorf("sink holds superstep %d, coordinator resumes from %d", step, int(v)-1))
		}
	}
	if step < 0 {
		return 0, nil, nil
	}
	inbox, err := core.RestoreCheckpointPart(parts[cfg.ID], step, core.MachineID(cfg.ID), r, snap, codec)
	if err != nil {
		return fail(err)
	}
	if coord != nil {
		if coord.stats, err = core.DecodeStats(stats, cfg.K); err != nil {
			return fail(err)
		}
	}
	return step + 1, inbox, nil
}

package node

import (
	"fmt"

	"kmachine/internal/core"
	"kmachine/internal/transport/tcp"
)

// This file is the socket link's side of core's checkpoint design
// (core/checkpoint.go: the cut, the container, the sink, the capture
// and the restore). Capture is core.Drive's hook into the run's
// core.Assembler, exactly as in the in-process cluster, so the stored
// containers are byte for byte the same.
//
// Recovery is a re-run: the job scheduler rebuilds the poisoned mesh,
// rebuilds the machines from the deterministic inputs, and re-enters
// with Checkpoint.Resume set. What sockets add is agreement: the
// coordinator reads the sink's latest checkpoint and broadcasts its
// superstep in a pre-loop control round; every node checks its own view
// against it and hands its cut to core.Drive, which installs it and
// continues at the following superstep, bit-identical to an unkilled
// run. With an empty sink the broadcast says "from zero" and the
// freshly built machines simply run from the start.

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

// ctrlResume is the pre-loop control frame of a resuming run: the
// coordinator broadcasts the superstep of the checkpoint every node
// must restore (encoded as step+1, so 0 means "no checkpoint, run from
// the start"). Same value family as the job-lifecycle frames — far from
// the verdict kinds so a misread fails loudly.
const ctrlResume = byte(0xB2)

// resumeCut is the pre-loop round of a resuming run. Every node reads
// the sink's latest checkpoint; the coordinator broadcasts its superstep
// (as step+1) and the others check theirs against it. It returns the cut
// for core.Drive to install, nil when the sink is empty. A checkpoint of
// another cluster size is an error, not a silent from-zero.
func resumeCut[M any](cfg Config, ep *tcp.Endpoint[M], sink core.CheckpointSink) (*core.Cut, error) {
	var cut *core.Cut
	step, blob, err := sink.Latest()
	if blob == nil {
		step = -1
	} else if err == nil {
		cut, err = core.OpenCheckpoint(blob, step, cfg.K)
	}
	if err == nil {
		err = ctrlRound(cfg, ep, ctrlResume, uint64(step+1))
	}
	if err != nil {
		return nil, fmt.Errorf("node: machine %d resume: %w", cfg.ID, err)
	}
	return cut, nil
}

package node

import (
	"fmt"

	"kmachine/internal/core"
	"kmachine/internal/transport/tcp"
)

// This file is the socket link's side of core's checkpoint design
// (core/checkpoint.go: the cut, the container, the sink, the capture
// and the restore). Capture is core.Drive's hook into the run's
// core.Assembler and the cut a resuming run installs is
// core.LatestCut's, exactly as in the in-process cluster, so the stored
// containers and the resume semantics are the same. What sockets add is
// agreement: every node opens the sink's latest cut itself, so before
// the first superstep the coordinator broadcasts its superstep and
// every other node checks its own against it.

// ctrlResume is the pre-loop control frame of a resuming run: the
// coordinator broadcasts the superstep of the checkpoint every node
// must restore (encoded as step+1, so 0 means "no checkpoint, run from
// the start"). Same value family as the job-lifecycle frames, so a
// misread fails loudly.
const ctrlResume = byte(0xB2)

// resumeCut is the pre-loop round of a resuming run: core.LatestCut,
// then the ctrlResume agreement on its superstep. It returns the cut
// for core.Drive to install, nil when the sink is empty.
func resumeCut[M any](cfg core.Config, id int, ep *tcp.Endpoint[M], sink core.CheckpointSink) (*core.Cut, error) {
	cut, err := core.LatestCut(sink, cfg.K)
	if err == nil {
		step := -1
		if cut != nil {
			step = cut.Step
		}
		err = ctrlRound(cfg, id, ep, ctrlResume, uint64(step+1))
	}
	if err != nil {
		return nil, fmt.Errorf("node: machine %d resume: %w", id, err)
	}
	return cut, nil
}

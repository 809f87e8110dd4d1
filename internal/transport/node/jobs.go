package node

import (
	"context"
	"fmt"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// This file is the node runtime's multi-job mode: where Run/RunLocal
// build a mesh, execute one algorithm, and tear everything down, a
// LocalMesh outlives jobs — RunJobLocal attaches fresh typed endpoints
// to the standing fabric for each job, frames every data batch with the
// job ID, brackets the superstep loop in a job-begin/job-end control
// handshake, and detaches with the connections intact. Per-job
// isolation falls out of the structure: each job gets fresh endpoints
// (wire counters, scratch, inboxes), a fresh coordinator (Stats), and
// whatever Recorder the caller put in its Config.

// Job-lifecycle control frames, exchanged on the report/verdict plane
// around each job's superstep loop. Values deliberately far from the
// verdict kinds (0..2): a verdict misread as a lifecycle frame — or
// vice versa, a straggler from a mis-sequenced previous job — fails
// loudly instead of aliasing.
const (
	ctrlJobBegin = byte(0xB0)
	ctrlJobEnd   = byte(0xB1)
)

// encodeCtrl and decodeCtrl are the one layout of every pre- and
// post-loop control frame: the kind byte, then one uvarint (the job ID;
// for ctrlResume, the superstep).
func encodeCtrl(kind byte, v uint64) []byte {
	return wire.AppendUvarint([]byte{kind}, v)
}

func decodeCtrl(buf []byte, wantKind byte) (uint64, error) {
	if len(buf) < 1 || buf[0] != wantKind {
		got := byte(0xFF)
		if len(buf) > 0 {
			got = buf[0]
		}
		return 0, fmt.Errorf("node: expected control frame 0x%02x, got 0x%02x", wantKind, got)
	}
	v, _, err := wire.Uvarint(buf[1:])
	if err != nil {
		return 0, fmt.Errorf("node: corrupt control frame 0x%02x: %w", wantKind, err)
	}
	return v, nil
}

func decodeJobCtrl(buf []byte, wantKind byte, wantJob uint64) error {
	job, err := decodeCtrl(buf, wantKind)
	if err == nil && job != wantJob {
		err = fmt.Errorf("node: job control frame for job %d, want job %d", job, wantJob)
	}
	return err
}

// LocalMesh is the standing k-machine socket fabric of a resident
// in-process cluster: k listeners on loopback, every ordered pair
// connected, no job running. It is built once (NewLocalMesh), executes
// any number of sequential jobs (RunJobLocal), and is torn down on
// Close. Any job failure poisons it — Healthy reports whether the next
// job may run or the owner must rebuild.
type LocalMesh struct {
	k      int
	meshes []*tcp.Mesh
}

// NewLocalMesh builds the standing loopback fabric for a k-machine
// resident cluster.
func NewLocalMesh(k int) (*LocalMesh, error) {
	if k < 2 {
		return nil, fmt.Errorf("node: need k >= 2 machines, got %d", k)
	}
	ms, err := tcp.NewLoopbackSocketMesh(k)
	if err != nil {
		return nil, err
	}
	return &LocalMesh{k: k, meshes: ms}, nil
}

// K returns the cluster size.
func (lm *LocalMesh) K() int { return lm.k }

// Healthy reports whether every machine's fabric is still usable: false
// after any job failure (or Sever), meaning the owner must rebuild the
// mesh before the next job.
func (lm *LocalMesh) Healthy() bool {
	for _, m := range lm.meshes {
		if !m.Healthy() {
			return false
		}
	}
	return true
}

// Sever forcibly closes machine i's fabric — listener and every
// connection — simulating that machine dying mid-job. The in-flight
// job fails with attribution; the mesh is poisoned. Fault injection
// for chaos tests, mirroring tcp.Transport.SeverMachine.
func (lm *LocalMesh) Sever(i int) error {
	if i < 0 || i >= lm.k {
		return fmt.Errorf("node: cannot sever machine %d of %d", i, lm.k)
	}
	return lm.meshes[i].Close()
}

// Close tears down every machine's fabric.
func (lm *LocalMesh) Close() error {
	var first error
	for _, m := range lm.meshes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RunJobLocal executes one job on the standing mesh: typed endpoints
// attach for job `job` (all data frames carry its ID), the coordinator
// opens with a job-begin control frame, the ordinary superstep loop
// runs to its stop verdict, and a job-end handshake certifies every
// machine consumed every frame before the endpoints detach — which is
// what makes the connections safe to hand to the next job's endpoints.
// cfg is a template exactly like RunLocal's: ID, ListenAddr, and Peers
// are ignored; K must equal the mesh's. On any error the mesh is
// poisoned (Healthy()==false) and must be rebuilt.
func RunJobLocal[M any](lm *LocalMesh, cfg Config, job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, error) {
	if cfg.K != lm.k {
		return nil, fmt.Errorf("node: job config wants k=%d on a k=%d mesh", cfg.K, lm.k)
	}
	if job == 0 {
		// Zero is the "no job" sentinel in MachineError attribution.
		return nil, fmt.Errorf("node: job IDs start at 1")
	}
	k := lm.k
	ck := newAssembler(cfg)
	eps := make([]*tcp.Endpoint[M], k)
	for i := 0; i < k; i++ {
		e, err := tcp.Attach[M](lm.meshes[i], codec, job)
		if err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
		if cfg.Recorder != nil {
			e.SetRecorder(cfg.Recorder)
		}
		eps[i] = e
	}
	// Factory calls stay sequential, matching core.NewCluster's contract.
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
				stats[i], errs[i] = runJobNode(mcfg, eps[i], machines[i], job, codec, ck)
			} else {
				errs[i] = err
			}
			if errs[i] != nil {
				// Same teardown rule as RunLocal: a node that bails must
				// close its endpoint — and with it the shared fabric — so
				// peers parked on its connections unblock immediately.
				eps[i].Close()
			} else {
				eps[i].Detach()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A failed job may leave some machines cleanly detached and
			// others mid-teardown; poison the whole fabric so the owner
			// rebuilds rather than running the next job on a half-dead
			// mesh.
			for _, e := range eps {
				e.Close()
			}
			if errs[0] != nil {
				return stats[0], errs[0]
			}
			return stats[0], err
		}
	}
	return stats[0], nil
}

// runJobNode wraps one machine's superstep loop in the job-lifecycle
// handshake. The begin frame proves the control plane is aligned on
// this job before any data frame ships; the end frames prove every
// machine consumed its stop verdict — i.e. every connection is
// quiescent — before the caller detaches the endpoints.
func runJobNode[M any](cfg Config, ep *tcp.Endpoint[M], m core.Machine[M], job uint64, codec wire.Codec[M], ck *assembler) (*core.Stats, error) {
	runCtx := cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	hctx, cancel := handshakeCtx(runCtx, cfg)
	if cfg.ID == 0 {
		if err := ep.Broadcast(hctx, encodeCtrl(ctrlJobBegin, job)); err != nil {
			cancel()
			return nil, fmt.Errorf("node: coordinator job %d begin: %w", job, err)
		}
	} else {
		frame, err := ep.ReceiveVerdict(hctx)
		if err == nil {
			err = decodeJobCtrl(frame, ctrlJobBegin, job)
		}
		if err != nil {
			cancel()
			return nil, fmt.Errorf("node: machine %d job %d begin: %w", cfg.ID, job, err)
		}
	}
	cancel()

	stats, err := runLoop(cfg, ep, m, codec, ck)
	if err != nil {
		return stats, err
	}

	hctx, cancel = handshakeCtx(runCtx, cfg)
	defer cancel()
	if err := ep.SendToCoordinator(hctx, encodeCtrl(ctrlJobEnd, job)); err != nil {
		return stats, fmt.Errorf("node: machine %d job %d end: %w", cfg.ID, job, err)
	}
	if cfg.ID == 0 {
		// Step index is only diagnostic here; -1 marks the end-of-job
		// collection round.
		ends, err := ep.CollectReports(hctx, -1)
		if err != nil {
			return stats, fmt.Errorf("node: coordinator job %d end: %w", job, err)
		}
		for i, frame := range ends {
			if err := decodeJobCtrl(frame, ctrlJobEnd, job); err != nil {
				return stats, fmt.Errorf("node: coordinator job %d end from machine %d: %w", job, i, err)
			}
		}
	}
	return stats, nil
}

// handshakeCtx bounds a job-lifecycle handshake the same way a
// superstep is bounded: by cfg.SuperstepTimeout when set, otherwise
// only by the run context.
func handshakeCtx(runCtx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.SuperstepTimeout > 0 {
		return context.WithTimeout(runCtx, cfg.SuperstepTimeout)
	}
	return context.WithCancel(runCtx)
}

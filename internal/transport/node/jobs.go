package node

import (
	"context"
	"fmt"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// This file is the socket link's multi-job mode: where Run/RunLocal
// build a mesh, execute one algorithm, and tear everything down, a
// LocalMesh outlives jobs — RunJobLocal attaches fresh typed endpoints
// to the standing fabric for each job, frames every data batch with the
// job ID, brackets core.Drive in a job-begin/job-end control handshake,
// and detaches with the connections intact. Per-job isolation falls out
// of the structure: each job gets fresh endpoints (wire counters,
// scratch, inboxes), a fresh coordinator (Stats), and whatever Recorder
// the caller put in its core.Config.

// Job-lifecycle control frames, exchanged on the control connections
// around each job's superstep loop. Values deliberately far from any
// other control byte: a straggler from a mis-sequenced previous job
// fails loudly instead of aliasing.
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

func decodeCtrl(buf []byte, wantKind byte, want uint64) error {
	if len(buf) < 1 || buf[0] != wantKind {
		got := byte(0xFF)
		if len(buf) > 0 {
			got = buf[0]
		}
		return fmt.Errorf("node: expected control frame 0x%02x, got 0x%02x", wantKind, got)
	}
	v, _, err := wire.Uvarint(buf[1:])
	if err != nil {
		return fmt.Errorf("node: corrupt control frame 0x%02x: %w", wantKind, err)
	}
	if v != want {
		return fmt.Errorf("node: control frame 0x%02x carries %d, want %d", wantKind, v, want)
	}
	return nil
}

// ctrlRound is the one shape of a pre-loop control round: the
// coordinator broadcasts ⟨kind, v⟩ and every other machine checks it
// against its own v, which proves the control plane is aligned — on
// this job, on this checkpoint — before any data frame ships.
func ctrlRound[M any](cfg core.Config, id int, ep *tcp.Endpoint[M], kind byte, v uint64) error {
	hctx, cancel := handshakeCtx(cfg)
	defer cancel()
	if id == 0 {
		return ep.Broadcast(hctx, encodeCtrl(kind, v))
	}
	frame, err := ep.ReceiveFromCoordinator(hctx)
	if err != nil {
		return err
	}
	return decodeCtrl(frame, kind, v)
}

// LocalMesh is the standing k-machine socket fabric of a resident
// in-process cluster: k listeners on loopback, every ordered pair
// connected, no job running. It is built once (NewLocalMesh), executes
// any number of sequential jobs (RunJobLocal), and is torn down on
// Close. Any job failure poisons it — Healthy reports false — and the
// next job rebuilds it in place before attaching.
type LocalMesh struct {
	k int

	mu       sync.Mutex // guards meshes against status reads during a rebuild
	meshes   []*tcp.Mesh
	rebuilds int64
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
// after any job failure (or Sever) until the next job rebuilds it.
func (lm *LocalMesh) Healthy() bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.healthyLocked()
}

func (lm *LocalMesh) healthyLocked() bool {
	for _, m := range lm.meshes {
		if !m.Healthy() {
			return false
		}
	}
	return true
}

// Rebuilds counts the in-place rebuilds of a poisoned fabric so far.
func (lm *LocalMesh) Rebuilds() int64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.rebuilds
}

// Sever forcibly closes machine i's fabric — listener and every
// connection — simulating that machine dying mid-job. The in-flight
// job fails with attribution; the mesh is poisoned. Fault injection
// for chaos tests, mirroring tcp.Transport.SeverMachine.
func (lm *LocalMesh) Sever(i int) error {
	if i < 0 || i >= lm.k {
		return fmt.Errorf("node: cannot sever machine %d of %d", i, lm.k)
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.meshes[i].Close()
}

// Close tears down every machine's fabric.
func (lm *LocalMesh) Close() error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var first error
	for _, m := range lm.meshes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// attachable returns the fabric a job attaches to, first replacing a
// poisoned one: closing connections is what unblocked a failed job's
// peers, so the next job needs fresh ones.
func (lm *LocalMesh) attachable() ([]*tcp.Mesh, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.healthyLocked() {
		return lm.meshes, nil
	}
	for _, m := range lm.meshes {
		m.Close()
	}
	ms, err := tcp.NewLoopbackSocketMesh(lm.k)
	if err != nil {
		return nil, fmt.Errorf("node: rebuild poisoned mesh: %w", err)
	}
	lm.meshes = ms
	lm.rebuilds++
	return ms, nil
}

// RunJobLocal executes one job on the standing mesh: typed endpoints
// attach for job `job` (all data batches carry its ID), the coordinator
// opens with a job-begin control frame, core.Drive runs to the stop
// every node rules from the same last superstep — which every machine
// has finished, so every connection is drained — and a job-end
// handshake certifies every machine got there before the endpoints
// detach, which is what makes the connections safe to hand to the next
// job's endpoints. Like RunLocal's, cfg is validated first: a rejected
// job attaches nothing and leaves the mesh healthy.
// On any later error the mesh is poisoned (Healthy()==false) until the
// next RunJobLocal rebuilds it.
func RunJobLocal[M any](lm *LocalMesh, cfg core.Config, job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	err := cfg.Validate()
	switch {
	case err != nil:
	case cfg.K != lm.k:
		err = fmt.Errorf("node: job config wants k=%d on a k=%d mesh", cfg.K, lm.k)
	case job == 0:
		// Zero is the "no job" sentinel in MachineError attribution.
		err = fmt.Errorf("node: job IDs start at 1")
	}
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	meshes, err := lm.attachable()
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	eps := make([]*tcp.Endpoint[M], lm.k)
	for i := range eps {
		if eps[i], err = tcp.Attach[M](meshes[i], codec, job); err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, transport.WireStats{}, err
		}
	}
	stats, w, err := runCluster(cfg, eps, job, codec, factory)
	for _, ep := range eps {
		if err != nil {
			// A failed job may leave some machines cleanly done and others
			// mid-teardown; poison the whole fabric so the next job rebuilds
			// it rather than running on a half-dead mesh.
			ep.Close()
		} else {
			ep.Detach()
		}
	}
	return stats, w, err
}

// jobEnd proves every machine finished the job's last superstep — i.e.
// every connection is quiescent — before the caller detaches the
// endpoints.
func jobEnd[M any](cfg core.Config, id int, ep *tcp.Endpoint[M], job uint64) error {
	hctx, cancel := handshakeCtx(cfg)
	defer cancel()
	if err := ep.SendToCoordinator(hctx, encodeCtrl(ctrlJobEnd, job)); err != nil || id != 0 {
		return err
	}
	// Step index is only diagnostic here; -1 marks the end-of-job
	// collection round.
	ends, err := ep.CollectReports(hctx, -1)
	for i := 0; err == nil && i < len(ends); i++ {
		if err = decodeCtrl(ends[i], ctrlJobEnd, job); err != nil {
			err = fmt.Errorf("from machine %d: %w", i, err)
		}
	}
	return err
}

// handshakeCtx bounds a pre- or post-loop control round the same way a
// superstep is bounded: by cfg.SuperstepTimeout when set, otherwise
// only by the run context.
func handshakeCtx(cfg core.Config) (context.Context, context.CancelFunc) {
	runCtx := cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	if cfg.SuperstepTimeout > 0 {
		return context.WithTimeout(runCtx, cfg.SuperstepTimeout)
	}
	return context.WithCancel(runCtx)
}

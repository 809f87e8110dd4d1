package node

import (
	"fmt"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/transport"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// This file is the socket link's in-process cluster: a LocalMesh is k
// loopback meshes, and a run on it attaches fresh typed endpoints for
// one job, runs core.Drive on every machine, and detaches with the
// connections intact. RunLocal is job 0 — bare frames — on a LocalMesh
// of its own; RunJobLocal runs job after job on a standing one, every
// data batch framed with the job ID. Per-job isolation falls out of the
// structure: each job gets fresh endpoints (wire counters, scratch,
// inboxes), fresh coordinator replicas (Stats), and whatever Recorder
// the caller put in its core.Config.

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
	ms, err := tcp.NewLoopbackMesh(k)
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
// for tests: a machine's Step that severs itself dies mid-superstep.
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
	ms, err := tcp.NewLoopbackMesh(lm.k)
	if err != nil {
		return nil, fmt.Errorf("node: rebuild poisoned mesh: %w", err)
	}
	lm.meshes = ms
	lm.rebuilds++
	return ms, nil
}

// RunJobLocal executes one job on the standing mesh: typed endpoints
// attach for job `job` (every batch carries its ID, and a reader rejects
// any other), and core.Drive runs on every machine to the stop each
// rules from the same last superstep. Every machine has finished that
// superstep, so every frame shipped has been read, and once all k have
// returned the endpoints detach with the connections drained — safe to
// hand to the next job's endpoints. Like RunLocal's, cfg is validated
// first: a rejected job attaches nothing and leaves the mesh healthy.
// On any later error the mesh is poisoned (Healthy()==false) until the
// next RunJobLocal rebuilds it.
func RunJobLocal[M any](lm *LocalMesh, cfg core.Config, job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	err := cfg.Validate()
	switch {
	case err != nil:
	case cfg.K != lm.k:
		err = fmt.Errorf("node: job config wants k=%d on a k=%d mesh", cfg.K, lm.k)
	case job == 0:
		// Job 0 is a single run: bare frames, "no job" in MachineError.
		err = fmt.Errorf("node: job IDs start at 1")
	}
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	return runJob(lm, cfg, job, codec, factory)
}

// runJob runs job on lm, the shared body of RunLocal (job 0) and
// RunJobLocal: attach the k endpoints, drive all k machines, then
// detach them. A machine that fails closes its endpoint at once: peers
// may be parked in reads on its connections with no (or a long)
// deadline, and the close is what unwedges them. A failed job may leave
// some machines cleanly done and others mid-teardown, so on any error
// every endpoint closes, poisoning the whole fabric for the next job to
// rebuild rather than run on a half-dead mesh.
func runJob[M any](lm *LocalMesh, cfg core.Config, job uint64, codec wire.Codec[M], factory func(core.MachineID) core.Machine[M]) (*core.Stats, transport.WireStats, error) {
	meshes, err := lm.attachable()
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	eps, err := attach(meshes, codec, job)
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	asm := core.NewAssembler(cfg.Checkpoint, cfg.K)
	// Factory calls stay sequential, matching core.NewCluster's contract
	// (factories may append to shared slices without locking).
	machines := make([]core.Machine[M], cfg.K)
	for i := range machines {
		machines[i] = factory(core.MachineID(i))
	}
	stats, err := core.DriveAll(cfg.K, func(i int) (*core.Stats, error) {
		return runNode(cfg, i, eps[i], machines[i], codec, asm)
	}, func(i int, _ error) { eps[i].Close() })
	var w transport.WireStats
	for _, ep := range eps {
		w = w.Plus(ep.WireStats())
		if err != nil {
			ep.Close()
		} else {
			ep.Detach()
		}
	}
	return stats, w, err
}

// attach binds one endpoint for job to each of meshes, closing those
// already bound if one fails.
func attach[M any](meshes []*tcp.Mesh, codec wire.Codec[M], job uint64) ([]*tcp.Endpoint[M], error) {
	eps := make([]*tcp.Endpoint[M], len(meshes))
	for i, m := range meshes {
		var err error
		if eps[i], err = tcp.Attach(m, codec, job); err != nil {
			for _, prev := range eps[:i] {
				prev.Close()
			}
			return nil, err
		}
	}
	return eps, nil
}

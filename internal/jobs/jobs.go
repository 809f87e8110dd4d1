// Package jobs is the coordinator-side job service of the resident
// cluster daemon (kmnode -serve): a FIFO scheduler that serializes
// submitted (algorithm, Problem, seed) requests onto one standing
// k-machine mesh, plus the HTTP control surface in http.go.
//
// The paper's model prices a computation in rounds, not in cluster
// construction — but the run-once lifecycle of the earlier CLIs built a
// mesh per computation: k·(k-1) in-memory connections, each with its
// read buffer and ring, and frame buffers regrown to the job's largest
// frames. The scheduler amortises that: the mesh is built once
// (transport/node.LocalMesh over transport/tcp.Mesh), every job
// attaches fresh typed endpoints framing its traffic with the job ID,
// and a job that every machine finished leaves its connections drained
// for the next. Per-job isolation is structural — fresh endpoints,
// fresh coordinator Stats, per-job Recorder — so a job stream's
// outputs and Stats are bit-identical to the same jobs run on fresh
// meshes (the determinism suite asserts exactly that).
//
// Failure policy: a failed job poisons the mesh (closing connections
// is what unblocks its peers), the next job rebuilds the fabric in
// place before attaching, and the failure is attributed to the job via
// transport.MachineError.Job. A checkpoint-opted job recovers inside
// its run (algo's retry loop), so the scheduler runs every job exactly
// once. One job's death never takes the daemon or the queue down with
// it.
package jobs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/obs"
	"kmachine/internal/transport/node"
)

// State is a job's position in the queued → running → done|failed
// lifecycle.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final (done, failed, canceled) —
// the states retention may evict and Cancel must refuse.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request is one job submission: which registered algorithm to run, on
// what Problem, under what deadline. Prob.K is forced to the backend's
// cluster size (a request may pass 0 or the matching k; anything else
// is rejected), and Prob.Context/Prob.Recorder are owned by the
// scheduler — the per-job deadline and the shared trace plug in there.
type Request struct {
	Algo    string
	Prob    algo.Problem
	Timeout time.Duration // run deadline, armed when the job starts (queue wait not counted); 0 = none
}

// Job is an immutable snapshot of one submission's lifecycle.
type Job struct {
	ID        uint64
	Algo      string
	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Outcome is the result of a done job (hash, Stats, summary, setup
	// and exec times); nil otherwise.
	Outcome *algo.Outcome
	// Err is the failure message of a failed job, carrying the job-ID
	// attribution when the runtime recorded it.
	Err string
}

// Latency is the submit-to-result wall clock of a finished job, or the
// time spent so far for a queued/running one (measured against now).
func (j Job) Latency(now time.Time) time.Duration {
	if !j.Finished.IsZero() {
		return j.Finished.Sub(j.Submitted)
	}
	return now.Sub(j.Submitted)
}

// Backend executes jobs for the scheduler. Exactly one job runs at a
// time (the scheduler serializes) — but Healthy, Rebuilds and K may
// race with Run from status handlers, so implementations guard shared
// state.
type Backend interface {
	// Run executes one job; ctx carries the per-job deadline/abort.
	Run(ctx context.Context, req Request, job uint64) (*algo.Outcome, error)
	// Healthy reports whether the fabric is unpoisoned.
	Healthy() bool
	// Rebuilds counts the fabric rebuilds so far.
	Rebuilds() int64
	// K is the cluster size every job runs on.
	K() int
	// Close tears the backend down.
	Close() error
}

// MeshBackend runs jobs on a standing k-machine socket mesh — the
// resident daemon's substrate. A failed job poisons the mesh; the next
// job rebuilds it in place (node.LocalMesh).
type MeshBackend struct {
	lm *node.LocalMesh
}

// NewMeshBackend builds the standing loopback fabric.
func NewMeshBackend(k int) (*MeshBackend, error) {
	lm, err := node.NewLocalMesh(k)
	if err != nil {
		return nil, err
	}
	return &MeshBackend{lm: lm}, nil
}

func (b *MeshBackend) Run(ctx context.Context, req Request, job uint64) (*algo.Outcome, error) {
	prob := req.Prob
	prob.K = b.lm.K()
	prob.Context = ctx
	return algo.Submit(req.Algo, prob, b.lm, job)
}

func (b *MeshBackend) Healthy() bool   { return b.lm.Healthy() }
func (b *MeshBackend) Rebuilds() int64 { return b.lm.Rebuilds() }
func (b *MeshBackend) K() int          { return b.lm.K() }

// Sever forcibly kills machine i's fabric — fault injection for chaos
// tests, forwarding node.LocalMesh.Sever. The in-flight job fails with
// job-ID attribution unless it recovers.
func (b *MeshBackend) Sever(i int) error { return b.lm.Sever(i) }

func (b *MeshBackend) Close() error { return b.lm.Close() }

// Options configures a Scheduler.
type Options struct {
	// Trace, when non-nil, is Reset before each job and installed as
	// the job's Recorder (unless the request brought its own) — the
	// debug plane's kmachine.* gauges then describe the live job.
	Trace *obs.Trace
	// MaxJobs bounds the retained job records: once more than MaxJobs
	// jobs exist, terminal ones (done/failed/canceled) are evicted in
	// the order they finished. Queued and running jobs are never
	// evicted, so the map may transiently exceed the bound when the
	// backlog alone exceeds it. 0 means unbounded.
	MaxJobs int
}

// Stats is a snapshot of the scheduler's own gauges.
type Stats struct {
	K          int
	Queued     int
	Running    uint64 // in-flight job ID, 0 when idle
	Done       int64
	Failed     int64
	Canceled   int64
	Rebuilds   int64
	Recovered  int64 // recoveries of the jobs that finished done
	Evicted    int64 // terminal job records dropped by retention
	Draining   bool
	MeshHealth bool
}

// Scheduler owns the job queue and the single executor goroutine that
// drains it onto the backend in FIFO order. New starts it; Close stops
// it.
type Scheduler struct {
	backend Backend
	trace   *obs.Trace
	maxJobs int

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[uint64]*Job
	queue     []uint64 // FIFO of queued job IDs
	reqs      map[uint64]Request
	terminal  []uint64 // terminal job IDs in finish order (eviction order)
	nextID    uint64
	running   uint64 // in-flight job ID, 0 when idle
	cancelCur context.CancelFunc
	cancelReq uint64 // job ID whose cancellation was requested, 0 if none
	done      int64
	failed    int64
	canceled  int64
	recovered int64
	evicted   int64
	draining  bool
	closed    bool

	rootCtx    context.Context
	rootCancel context.CancelFunc
	execDone   chan struct{}
}

// New starts a scheduler over the backend.
func New(b Backend, opts Options) *Scheduler {
	s := &Scheduler{
		backend:  b,
		trace:    opts.Trace,
		maxJobs:  opts.MaxJobs,
		jobs:     map[uint64]*Job{},
		reqs:     map[uint64]Request{},
		execDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	go s.run()
	return s
}

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = fmt.Errorf("jobs: scheduler is draining, not accepting new jobs")

// Submit validates and enqueues one job, returning its ID. Jobs run in
// submission order; IDs start at 1 (job 0 is a single run, which an
// error names no job).
func (s *Scheduler) Submit(req Request) (uint64, error) {
	if _, ok := algo.Lookup(req.Algo); !ok {
		return 0, fmt.Errorf("jobs: unknown algorithm %q", req.Algo)
	}
	if req.Prob.N <= 0 {
		return 0, fmt.Errorf("jobs: need n > 0, got %d", req.Prob.N)
	}
	k := s.backend.K()
	if req.Prob.K != 0 && req.Prob.K != k {
		return 0, fmt.Errorf("jobs: request wants k=%d on a k=%d cluster", req.Prob.K, k)
	}
	req.Prob.K = k
	if err := req.Prob.Validate(); err != nil {
		return 0, fmt.Errorf("jobs: %w", err)
	}
	if req.Timeout < 0 {
		return 0, fmt.Errorf("jobs: need timeout >= 0 (0 = none), got %v", req.Timeout)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return 0, ErrDraining
	}
	s.nextID++
	id := s.nextID
	s.jobs[id] = &Job{ID: id, Algo: req.Algo, State: StateQueued, Submitted: time.Now()}
	s.reqs[id] = req
	s.queue = append(s.queue, id)
	s.cond.Signal()
	return id, nil
}

// Cancellation errors, mapped onto 404/409 by the HTTP surface.
var (
	ErrUnknownJob  = fmt.Errorf("jobs: unknown job")
	ErrJobFinished = fmt.Errorf("jobs: job already finished")
)

// Cancel withdraws one job. A queued job leaves the queue and turns
// canceled immediately; a running job gets its context canceled and
// turns canceled when the backend returns (the returned snapshot still
// says running — poll Get for the terminal state). Unknown IDs
// (including evicted ones) return ErrUnknownJob; terminal jobs return
// ErrJobFinished with their snapshot.
func (s *Scheduler) Cancel(id uint64) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, ErrUnknownJob
	}
	if j.State.terminal() {
		snap := *j
		s.mu.Unlock()
		return snap, ErrJobFinished
	}
	if j.State == StateQueued {
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		delete(s.reqs, id)
		j.State = StateCanceled
		j.Finished = time.Now()
		j.Err = "jobs: canceled before start"
		s.canceled++
		s.markTerminalLocked(id)
		snap := *j
		s.mu.Unlock()
		return snap, nil
	}
	// Running: cancel through the job context; the executor records the
	// terminal state when the backend returns.
	s.cancelReq = id
	cancel := s.cancelCur
	snap := *j
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return snap, nil
}

// markTerminalLocked records a job's terminal transition for retention
// and evicts the oldest terminal records past the MaxJobs bound.
func (s *Scheduler) markTerminalLocked(id uint64) {
	s.terminal = append(s.terminal, id)
	if s.maxJobs <= 0 {
		return
	}
	for len(s.jobs) > s.maxJobs && len(s.terminal) > 0 {
		victim := s.terminal[0]
		s.terminal = s.terminal[1:]
		if _, ok := s.jobs[victim]; ok {
			delete(s.jobs, victim)
			s.evicted++
		}
	}
}

// Get returns a snapshot of one job.
func (s *Scheduler) Get(id uint64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns snapshots of every job in submission order.
func (s *Scheduler) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for id := uint64(1); id <= s.nextID; id++ {
		if j, ok := s.jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

// Stats snapshots the scheduler gauges.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		K:         s.backend.K(),
		Queued:    len(s.queue),
		Running:   s.running,
		Done:      s.done,
		Failed:    s.failed,
		Canceled:  s.canceled,
		Recovered: s.recovered,
		Evicted:   s.evicted,
		Draining:  s.draining,
	}
	s.mu.Unlock()
	st.Rebuilds, st.MeshHealth = s.backend.Rebuilds(), s.backend.Healthy()
	return st
}

// Drain stops accepting submissions (Submit returns ErrDraining) and
// waits until the queue is empty and no job is in flight — the
// first-signal half of graceful shutdown, and the /api/v1/drain
// endpoint. ctx bounds the wait; the drain state persists either way.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Abort cancels the in-flight job through its context — the
// second-signal force path. The job fails with a context error; queued
// jobs are untouched (a Close or Drain decides their fate).
func (s *Scheduler) Abort() {
	s.mu.Lock()
	cancel := s.cancelCur
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Close shuts the scheduler down: no new submissions, the in-flight
// job is aborted through its context, the executor exits, and the
// backend is closed. Idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.execDone
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.rootCancel()
	<-s.execDone
	return s.backend.Close()
}

// run is the executor goroutine: pop, execute, record — strictly one
// job at a time, in submission order.
func (s *Scheduler) run() {
	defer close(s.execDone)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			// Queued jobs die with the scheduler: mark them failed so
			// status queries don't report them queued forever, and count
			// and retire them like any other failure.
			for _, id := range s.queue {
				j := s.jobs[id]
				j.State = StateFailed
				j.Finished = time.Now()
				j.Err = "jobs: scheduler closed before the job ran"
				delete(s.reqs, id)
				s.failed++
				s.markTerminalLocked(id)
			}
			s.queue = nil
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		req := s.reqs[id]
		delete(s.reqs, id)
		j.State = StateRunning
		j.Started = time.Now()
		s.running = id
		var ctx context.Context
		var cancel context.CancelFunc
		if req.Timeout > 0 {
			ctx, cancel = context.WithTimeout(s.rootCtx, req.Timeout)
		} else {
			ctx, cancel = context.WithCancel(s.rootCtx)
		}
		s.cancelCur = cancel
		s.mu.Unlock()

		if s.trace != nil {
			// Between jobs every recorder is quiescent, so the reset
			// cleanly re-scopes the debug plane to this job.
			s.trace.Reset()
			if req.Prob.Recorder == nil {
				req.Prob.Recorder = s.trace
			}
		}

		out, err := s.backend.Run(ctx, req, id)
		cancel()

		s.mu.Lock()
		j.Finished = time.Now()
		s.running = 0
		s.cancelCur = nil
		wasCanceled := s.cancelReq == id
		s.cancelReq = 0
		if err != nil {
			if wasCanceled {
				j.State = StateCanceled
				s.canceled++
			} else {
				j.State = StateFailed
				s.failed++
			}
			j.Err = err.Error()
		} else {
			j.State = StateDone
			j.Outcome = out
			s.done++
			s.recovered += int64(out.Stats.Recoveries)
		}
		s.markTerminalLocked(id)
		s.mu.Unlock()
	}
}

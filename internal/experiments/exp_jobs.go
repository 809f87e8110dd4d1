package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/jobs"
)

// E24JobService measures what the resident mesh daemon amortises: the
// per-job cost of building the k-machine socket fabric. The same short
// job streams run through the jobs.Scheduler twice — once on the
// standing mesh (build once, attach per job), once on the build-per-job
// backend (fresh socket mesh per job, the run-once lifecycle of the
// earlier CLIs) — under a concurrent submitter keeping a fixed window
// of jobs in flight, reporting sustained jobs/sec and the p50/p99
// submit-to-result latency of each stream.
//
// The model prices computations in rounds and treats cluster setup as
// free; a real deployment pays O(k^2) dials and handshakes per mesh.
// Standing-mesh speedup therefore depends on how a job's execution
// time compares to mesh construction: jobs shorter than the mesh build
// (routing's single superstep, triangle's three) clear 3x, while
// superstep-heavy jobs amortise the build over so much execution that
// the gap narrows — even the shortest PageRank walks (eps=0.95 keeps
// them near the ~40-superstep floor) sit at the crossover. The mix row
// is the headline; the solo rows locate the crossover.
func E24JobService(cfg Config) (Table, error) {
	t := Table{
		ID:     "E24",
		Title:  "job service: standing k=8 mesh vs build-per-job, sustained jobs/sec and submit-to-result latency",
		Claim:  "§1.1 prices rounds, not cluster construction — a resident mesh amortises the O(k^2) per-job fabric build the run-once lifecycle pays",
		Header: []string{"workload", "jobs", "standing jobs/s", "build jobs/s", "speedup", "standing p50/p99", "build p50/p99"},
	}
	const k = 8
	mix := []jobs.Request{
		{Algo: "pagerank", Prob: algo.Problem{N: 16, Eps: 0.95, Seed: cfg.Seed + 97}},
		{Algo: "conncomp", Prob: algo.Problem{N: 64, Seed: cfg.Seed + 97}},
		{Algo: "triangle", Prob: algo.Problem{N: 64, Seed: cfg.Seed + 97}},
		{Algo: "dsort", Prob: algo.Problem{N: 64, Seed: cfg.Seed + 97}},
		{Algo: "routing", Prob: algo.Problem{N: 64, Seed: cfg.Seed + 97}},
	}
	type workload struct {
		name string
		reqs []jobs.Request
	}
	reps := 2
	if cfg.Quick {
		reps = 1
	}
	var stream []jobs.Request
	for r := 0; r < reps; r++ {
		stream = append(stream, mix...)
	}
	workloads := []workload{{"mix", stream}}
	solos := mix
	if cfg.Quick {
		solos = mix[:1] // pagerank only; the full bench locates the crossover
	}
	perSolo := 6
	if cfg.Quick {
		perSolo = 3
	}
	for _, req := range solos {
		reqs := make([]jobs.Request, perSolo)
		for i := range reqs {
			reqs[i] = req
		}
		workloads = append(workloads, workload{req.Algo, reqs})
	}

	// Single-core scheduling noise makes any one stream's wall clock
	// swing; like min-time benchmarking, the best of R repetitions per
	// (workload, backend) estimates the undisturbed stream. Applied
	// symmetrically to both backends.
	bestOf := 5
	if cfg.Quick {
		bestOf = 1
	}
	var fastest []string
	for _, wl := range workloads {
		standing, err := bestJobStream(k, true, wl.reqs, bestOf)
		if err != nil {
			return t, fmt.Errorf("%s/standing: %w", wl.name, err)
		}
		build, err := bestJobStream(k, false, wl.reqs, bestOf)
		if err != nil {
			return t, fmt.Errorf("%s/build: %w", wl.name, err)
		}
		speedup := standing.jobsPerSec / build.jobsPerSec
		t.Rows = append(t.Rows, []string{
			wl.name, itoa(len(wl.reqs)),
			fmt.Sprintf("%.1f", standing.jobsPerSec), fmt.Sprintf("%.1f", build.jobsPerSec),
			fmt.Sprintf("%.2fx", speedup),
			ms(int64(standing.p50)) + "/" + ms(int64(standing.p99)),
			ms(int64(build.p50)) + "/" + ms(int64(build.p99)),
		})
		if speedup >= 3 {
			fastest = append(fastest, wl.name)
		}
	}
	if len(fastest) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			">=3x standing-mesh speedup holds for %v — jobs whose execution is shorter than one mesh construction", fastest))
	}
	t.Notes = append(t.Notes,
		"submitter keeps a window of 4 jobs in flight (concurrent submit-while-running); latency is submit-to-result including queue wait",
		"speedup scales with (mesh build)/(job exec): single-superstep jobs see the full fabric amortisation, superstep-heavy jobs bury it in execution",
		fmt.Sprintf("GOMAXPROCS=%d — on a single-core host the parallel mesh dials and the supersteps serialize alike, which narrows the standing-mesh advantage", runtime.GOMAXPROCS(0)),
		"output hashes and Stats of every scheduled job are bit-identical to fresh single-run references (the jobs package determinism suite asserts this)")
	return t, nil
}

// streamResult summarises one job stream's timing.
type streamResult struct {
	jobsPerSec float64
	p50, p99   time.Duration
}

// bestJobStream repeats the stream and keeps the fastest repetition.
func bestJobStream(k int, standing bool, reqs []jobs.Request, times int) (streamResult, error) {
	var best streamResult
	for i := 0; i < times; i++ {
		r, err := runJobStream(k, standing, reqs)
		if err != nil {
			return streamResult{}, err
		}
		if r.jobsPerSec > best.jobsPerSec {
			best = r
		}
	}
	return best, nil
}

// runJobStream pushes reqs through a fresh scheduler on the chosen
// backend with a window-4 concurrent submitter and waits for the last
// result.
func runJobStream(k int, standing bool, reqs []jobs.Request) (streamResult, error) {
	// Earlier experiments in a full-suite run leave a large live heap;
	// collect it up front so GC pacing inside the timed stream reflects
	// the job service, not the predecessor (what testing.B does between
	// benchmarks).
	runtime.GC()
	var backend jobs.Backend = buildBackend{k: k}
	if standing {
		mesh, err := jobs.NewMeshBackend(k)
		if err != nil {
			return streamResult{}, err
		}
		backend = mesh
	}
	s := jobs.New(backend, jobs.Options{})
	defer s.Close()

	const window = 4
	outstanding := map[uint64]bool{}
	var lats []time.Duration
	submitted := 0
	start := time.Now()
	for submitted < len(reqs) || len(outstanding) > 0 {
		for submitted < len(reqs) && len(outstanding) < window {
			id, err := s.Submit(reqs[submitted])
			if err != nil {
				return streamResult{}, err
			}
			outstanding[id] = true
			submitted++
		}
		time.Sleep(500 * time.Microsecond)
		for id := range outstanding {
			j, ok := s.Get(id)
			if !ok {
				return streamResult{}, fmt.Errorf("job %d vanished", id)
			}
			switch j.State {
			case jobs.StateDone:
				lats = append(lats, j.Latency(time.Now()))
				delete(outstanding, id)
			case jobs.StateFailed:
				return streamResult{}, fmt.Errorf("job %d (%s) failed: %s", id, j.Algo, j.Err)
			}
		}
	}
	wall := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return streamResult{
		jobsPerSec: float64(len(reqs)) / wall.Seconds(),
		p50:        lats[len(lats)/2],
		p99:        lats[(len(lats)*99+99)/100-1],
	}, nil
}

// buildBackend is E24's baseline arm: every job runs on a freshly built
// node-local socket mesh — the run-once lifecycle the daemon replaces.
type buildBackend struct{ k int }

func (b buildBackend) Run(ctx context.Context, req jobs.Request, job uint64) (*algo.Outcome, error) {
	e, ok := algo.Lookup(req.Algo)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown algorithm %q", req.Algo)
	}
	prob := req.Prob
	prob.K = b.k
	prob.Context = ctx
	return e.RunNodeLocal(prob)
}

func (b buildBackend) Healthy() bool  { return true }
func (b buildBackend) Rebuild() error { return nil }
func (b buildBackend) K() int         { return b.k }
func (b buildBackend) Close() error   { return nil }

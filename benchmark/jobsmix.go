package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/jobs"
	"kmachine/internal/obs"
)

// The jobs-mix workload drives the resident daemon the way its users
// do: over HTTP, against one scheduler on one standing mesh.
const (
	// mixClients is the closed loop's client count: one per core, so one
	// executor always leaves a job queueing.
	mixClients = 2
	// pollEvery is the pause between a client's status polls. It bounds
	// how late a client learns of a finished job and how much CPU the
	// load generator takes from the executor.
	pollEvery = 2 * time.Millisecond
	// jobDeadline turns a job that never reaches a terminal state into a
	// counted failure instead of a hung benchmark.
	jobDeadline = 60 * time.Second
)

// recBackend lets the benchmark hand the running job a recorder
// through the public Problem.Recorder hook; the scheduler's own Trace
// option is reset per job and so cannot total a phase of jobs.
type recBackend struct {
	*jobs.MeshBackend
	rec atomic.Pointer[obs.Trace]
}

func (b *recBackend) Run(ctx context.Context, req jobs.Request, job uint64) (*algo.Outcome, error) {
	if tr := b.rec.Load(); tr != nil {
		req.Prob.Recorder = tr
	}
	return b.MeshBackend.Run(ctx, req, job)
}

// jobService is the program under test, assembled as kmnode -serve
// assembles it: mesh backend, scheduler, API on a loopback listener.
type jobService struct {
	backend *recBackend
	sched   *jobs.Scheduler
	srv     *http.Server
	served  chan struct{}
	url     string
}

func startJobService(k int) (*jobService, error) {
	mesh, err := jobs.NewMeshBackend(k)
	if err != nil {
		return nil, err
	}
	s := &jobService{backend: &recBackend{MeshBackend: mesh}, served: make(chan struct{})}
	s.sched = jobs.New(s.backend, jobs.Options{})
	mux := http.NewServeMux()
	s.sched.RegisterAPI(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: mux}
	go func() {
		s.srv.Serve(ln) // returns ErrServerClosed on stop
		close(s.served)
	}()
	return s, nil
}

func (s *jobService) stop() error {
	err := s.sched.Close()
	s.srv.Close()
	<-s.served
	return err
}

// jobSample is one job as its client saw it.
type jobSample struct {
	Slot    int
	Submit  time.Time     // just before the POST
	Latency time.Duration // POST sent → terminal state read
	Polls   int
	Job     jobs.JobJSON
	Err     error
}

// runJobs is one closed-loop phase: mixClients clients take the next
// job of the stream, submit it, poll it to a terminal state, and take
// another, until the clock passes until and at least minJobs were
// taken. next carries the stream position across phases.
func runJobs(url string, mix *jobMix, next *atomic.Int64, until time.Time, minJobs int64) []jobSample {
	first := next.Load()
	var mu sync.Mutex
	var out []jobSample
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: jobDeadline}
			defer client.CloseIdleConnections()
			for {
				i := next.Add(1) - 1
				if i-first >= minJobs && time.Now().After(until) {
					return // the stream position it took is simply skipped
				}
				s := doJob(client, url, mix, int(i))
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func doJob(client *http.Client, url string, mix *jobMix, i int) jobSample {
	slot := mix.slot(i)
	spec := mix.slots[slot]
	s := jobSample{Slot: slot}
	body, _ := json.Marshal(jobs.SubmitRequest{Algo: spec.Algo, N: spec.N, Seed: spec.Seed}) // plain struct, cannot fail
	s.Submit = time.Now()
	var accepted struct{ ID uint64 }
	if s.Err = call(client, http.MethodPost, url+"/api/v1/jobs", body, http.StatusAccepted, &accepted); s.Err != nil {
		return s
	}
	status := url + "/api/v1/jobs/" + strconv.FormatUint(accepted.ID, 10)
	for {
		s.Polls++
		if s.Err = call(client, http.MethodGet, status, nil, http.StatusOK, &s.Job); s.Err != nil {
			return s
		}
		s.Latency = time.Since(s.Submit)
		switch s.Job.State {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			return s
		}
		if s.Latency > jobDeadline {
			s.Err = fmt.Errorf("job %d still %s after %v", accepted.ID, s.Job.State, jobDeadline)
			return s
		}
		time.Sleep(pollEvery)
	}
}

func call(client *http.Client, method, url string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, url, resp.StatusCode, want)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func runJobsMix(cfg runConfig) (*runResult, error) {
	w := cfg.Workload
	res := &runResult{Metrics: metricSet{}, Samples: map[string][]float64{}}
	mix := newJobMix(cfg.Seed, cfg.Quick)
	svc, err := startJobService(w.K)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var all []jobSample
	phase := func(d time.Duration, minJobs int64) []jobSample {
		ss := runJobs(svc.url, mix, &next, time.Now().Add(d), minJobs)
		all = append(all, ss...)
		return ss
	}
	seconds := time.Duration(cfg.Seconds * float64(time.Second))
	warm, minJobs := int64(10), int64(10)
	if cfg.Quick {
		warm = 0
	}
	phase(0, warm)

	if !cfg.Trace {
		timed := phase(seconds, minJobs)
		res.Metrics["peak_rss_mb"] = peakRSSMB()
		lat, setup := latencies(timed), setups(timed)
		res.Metrics["run_wall_s"] = median(lat)
		res.Metrics["setup_s"] = median(setup)
		res.Metrics["jobs_per_s"] = float64(len(timed)) / window(timed).Seconds()
		res.Samples["run_wall_s"], res.Samples["setup_s"] = lat, setup
	} else {
		// Most of the clock goes to the untraced phase, whose server-side
		// timestamps feed the jobs.* ledger; the traced phase only has to
		// total the node phases and price the recorder.
		before, t0 := readRT(), time.Now()
		plain := phase(seconds*7/10, minJobs)
		cost, wall := readRT().sub(before), time.Since(t0)
		// One ring takes every job of the phase: ~10 k spans per job.
		tr := obs.NewTrace(4*traceSpans, w.K)
		svc.backend.rec.Store(tr)
		traced := phase(seconds*3/10, minJobs)
		svc.backend.rec.Store(nil)
		jobsLedger(svc, plain, res)
		// The process hosts the daemon and its two clients, so the
		// runtime's ledger per job includes the load generator.
		var steps float64
		for _, s := range plain {
			if s.Job.Result != nil {
				steps += float64(s.Job.Result.Supersteps)
			}
		}
		set := func(name string, v float64) { res.Metrics[name] = v }
		cost.metrics(wall, float64(len(plain)), steps, set)
		// Per job, like every other traced metric is per run.
		phaseMetrics(w, tr.Counters(), float64(len(traced)), set)
		res.Metrics["obs.overhead_frac"] = median(latencies(traced))/median(latencies(plain)) - 1
		res.Samples["traced_wall_s"], res.Samples["untraced_wall_s"] = latencies(traced), latencies(plain)
		if cfg.TraceDir != "" {
			// The ring holds the tail of the traced phase: its last jobs.
			if err := dumpTrace(cfg, tr.Spans()); err != nil {
				res.fail("%v", err)
			}
		}
	}
	if err := svc.stop(); err != nil {
		res.fail("stopping the job service: %v", err)
	}
	if cfg.Trace {
		if err := microPass(cfg, algo.Problem{}, res.Metrics); err != nil {
			res.fail("micro pass: %v", err)
		}
	}

	// The gate: one oracle-checked reference run per slot, after the
	// measurements; every job must reproduce its slot's reference.
	var refs [10]reference
	block, digest := expect{}, algo.NewHash64()
	for i, spec := range mix.slots {
		refs[i], err = referenceRun(spec.Algo, algo.Problem{N: spec.N, K: w.K, Seed: spec.Seed})
		if err != nil {
			res.fail("%v", err)
			return res, nil
		}
		block.Rounds += refs[i].Rounds
		block.Words += refs[i].Words
		block.Supersteps += refs[i].Supersteps
		digest.Add(refs[i].Hash)
	}
	block.Hash = digest.Sum()
	if !cfg.Quick && cfg.Seed == defaultSeed && w.Golden != (expect{}) && block != w.Golden {
		res.fail("reference block is %v, golden is %v", block, w.Golden)
	}
	for _, s := range all {
		res.Attempted++
		if err := checkJob(s, refs[s.Slot].expect); err != nil {
			res.Failed++
			res.fail("job %d (slot %d): %v", s.Job.ID, s.Slot, err)
		}
	}
	if !cfg.Trace {
		res.Metrics["model_rounds"] = float64(block.Rounds)
		res.Metrics["model_words"] = float64(block.Words)
	}
	return res, nil
}

func checkJob(s jobSample, want expect) error {
	if s.Err != nil {
		return s.Err
	}
	if s.Job.State != jobs.StateDone || s.Job.Result == nil {
		return fmt.Errorf("ended %s: %s", s.Job.State, s.Job.Error)
	}
	r := s.Job.Result
	got := expect{Rounds: r.Rounds, Words: r.Words, Supersteps: r.Supersteps}
	got.Hash, _ = strconv.ParseUint(r.Hash, 16, 64) // a malformed hash fails the comparison below
	if got != want {
		return fmt.Errorf("returned %v, want %v", got, want)
	}
	return nil
}

func latencies(ss []jobSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Latency.Seconds()
	}
	return out
}

func setups(ss []jobSample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Job.Result != nil {
			out = append(out, s.Job.Result.SetupMS/1e3)
		}
	}
	return out
}

// window is first submit → last terminal state over the samples.
func window(ss []jobSample) time.Duration {
	var first, last time.Time
	for _, s := range ss {
		if first.IsZero() || s.Submit.Before(first) {
			first = s.Submit
		}
		if end := s.Submit.Add(s.Latency); end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}

// jobsLedger reads the jobs layer's own numbers off the server-side
// timestamps of an untraced phase and the scheduler's gauges.
func jobsLedger(svc *jobService, ss []jobSample, res *runResult) {
	var wait, exec, attach, httpOver, polls []float64
	for _, s := range ss {
		j := s.Job
		if s.Err != nil || j.Started == nil || j.Finished == nil || j.Result == nil {
			continue
		}
		e := ms(j.Finished.Sub(*j.Started))
		wait = append(wait, ms(j.Started.Sub(j.Submitted)))
		exec = append(exec, e)
		attach = append(attach, e-j.Result.SetupMS-j.Result.ExecMS)
		httpOver = append(httpOver, ms(s.Latency-j.Finished.Sub(j.Submitted)))
		polls = append(polls, float64(s.Polls))
	}
	m := res.Metrics
	m["jobs.queue_wait_ms_p50"] = median(wait)
	m["jobs.exec_ms_p50"] = median(exec)
	m["jobs.attach_overhead_ms_p50"] = median(attach)
	m["jobs.http_overhead_ms_p50"] = median(httpOver)
	var sum float64
	for _, p := range polls {
		sum += p
	}
	if len(polls) > 0 {
		m["jobs.polls_per_job"] = sum / float64(len(polls))
	}
	lat := latencies(ss)
	for i := range lat {
		lat[i] *= 1e3
	}
	for name, xs := range map[string][]float64{"jobs.queue_wait_ms_p90": wait, "jobs.latency_p90_ms": lat} {
		if v, err := percentile(xs, 0.90); err == nil {
			m[name] = v
		} else {
			// Not a failure of the program under test: the run was too
			// short for a tail, and the metric reads 0.
			fmt.Printf("# %s not reported: %v\n", name, err)
		}
	}
	st := svc.sched.Stats()
	m["jobs.done"], m["jobs.failed"], m["jobs.rebuilds"] = float64(st.Done), float64(st.Failed), float64(st.Rebuilds)
}

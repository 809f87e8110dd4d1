package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/obs"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload *workload
	Seed     uint64
	Seconds  float64 // length of the timed loop
	Trace    bool    // traced + micro pass (per-layer metrics) instead of the untraced pass (end-to-end)
	Quick    bool    // tiny N, one iteration, no warm-up: the smoke test
	TraceDir string  // when set, dump one Chrome trace of the last traced iteration
}

// runResult is what one invocation reports.
type runResult struct {
	Attempted, Failed int
	// Problems lists every failed check; empty means correct.
	Problems []string
	Metrics  metricSet
	// Samples holds the per-iteration values behind the timed medians.
	Samples map[string][]float64
}

func (r *runResult) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// traceSpans is the capacity of the traced pass's span ring: the
// longest workload (585 supersteps × 8 machines × 7 peers × 3 frame
// phases + engine spans) records ~115 k spans per run.
const traceSpans = 1 << 18

// scratchDir is where checkpoint directories go: inside the checkout
// the benchmark runs from, next to the build outputs.
const scratchDir = ".bench_build/tmp"

func runWorkload(cfg runConfig) (*runResult, error) {
	if cfg.Quick {
		cfg.Seconds = 0 // the loops' minimum counts are all that runs
	}
	if cfg.Workload.On == onJobs {
		return runJobsMix(cfg)
	}
	return runSingle(cfg)
}

// iteration is one runner call with everything measured around it.
type iteration struct {
	Outcome *algo.Outcome
	Start   int64 // obs clock, so the run lines up with the engine spans
	Wall    time.Duration
	// DiskBytes is what a checkpointed run left in its directory.
	DiskBytes int64
	rt        rtDelta
}

// runner executes the workload's problem once. ckpt and rec override
// the two knobs the passes vary; everything else is the workload's.
func (w *workload) run(prob algo.Problem, ckpt bool, rec obs.Recorder) (it iteration, err error) {
	e, ok := algo.Lookup(w.Algo)
	if !ok {
		return it, fmt.Errorf("algorithm %q is not registered", w.Algo)
	}
	prob.Recorder = rec
	if ckpt {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return it, err
		}
		dir, err := os.MkdirTemp(scratchDir, "ckpt-*")
		if err != nil {
			return it, err
		}
		defer os.RemoveAll(dir)
		defer func() { it.DiskBytes = dirBytes(dir) }()
		prob.Checkpoint = algo.CheckpointSpec{Every: 1, Dir: dir}
	}
	// Each iteration starts from a collected heap, so its GC work is
	// its own and not the previous iteration's garbage.
	runtime.GC()
	before := readRT()
	it.Start = obs.Now()
	t0 := time.Now()
	switch w.On {
	case onTCP:
		it.Outcome, err = e.Run(prob, transport.TCP)
	case onInMem:
		it.Outcome, err = e.Run(prob, transport.InMem)
	case onNode:
		it.Outcome, err = e.RunNodeLocal(prob)
	}
	it.Wall = time.Since(t0)
	it.rt = readRT().sub(before)
	return it, err
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func runSingle(cfg runConfig) (*runResult, error) {
	w := cfg.Workload
	prob := w.problem(cfg.Seed, cfg.Quick)
	res := &runResult{Metrics: metricSet{}, Samples: map[string][]float64{}}
	var checked []iteration
	measure := func(ckpt bool, rec obs.Recorder) (iteration, error) {
		it, err := w.run(prob, ckpt, rec)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("run %d: %v", res.Attempted, err)
			return it, err
		}
		checked = append(checked, it)
		return it, nil
	}

	pass := untracedPass
	if cfg.Trace {
		pass = tracedPass
	}
	if err := pass(cfg, prob, res, measure); err != nil {
		return res, nil // already filed in res.Problems by measure
	}

	// The gate runs after the measurements so that the oracle's graph
	// and the reference cluster never count towards peak RSS.
	ref, err := referenceRun(w.Algo, prob)
	if err != nil {
		res.fail("%v", err)
		return res, nil
	}
	if !cfg.Quick && cfg.Seed == defaultSeed && w.Golden != (expect{}) && ref.expect != w.Golden {
		res.fail("reference run returned %v, golden is %v", ref.expect, w.Golden)
	}
	for i, it := range checked {
		if err := checkOutcome(it.Outcome, ref.expect); err != nil {
			res.Failed++
			res.fail("run %d: %v", i+1, err)
		}
	}
	if cfg.Trace {
		switch w.Algo {
		case "pagerank":
			res.Metrics["graph.seq_pagerank_ms"] = ref.SeqMS
		case "triangle":
			res.Metrics["graph.seq_triangles_ms"] = ref.SeqMS
		}
	} else {
		res.Metrics["model_rounds"] = float64(ref.Rounds)
		res.Metrics["model_words"] = float64(ref.Words)
	}
	return res, nil
}

// untracedPass is the closed loop behind the end-to-end metrics: two
// warm-up runs, then runs back to back until the clock says stop.
func untracedPass(cfg runConfig, _ algo.Problem, res *runResult, measure func(bool, obs.Recorder) (iteration, error)) error {
	w := cfg.Workload
	warm, minIters := 2, 3
	if cfg.Quick {
		warm, minIters = 0, 1
	}
	for i := 0; i < warm; i++ {
		if _, err := measure(w.Ckpt, nil); err != nil {
			return err
		}
	}
	var walls, setups []float64
	var total time.Duration
	for len(walls) < minIters || total.Seconds() < cfg.Seconds {
		it, err := measure(w.Ckpt, nil)
		if err != nil {
			return err
		}
		total += it.Wall
		walls = append(walls, it.Wall.Seconds())
		setups = append(setups, it.Outcome.SetupTime.Seconds())
	}
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.Metrics["run_wall_s"] = median(walls)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["jobs_per_s"] = float64(len(walls)) / total.Seconds()
	res.Samples["run_wall_s"], res.Samples["setup_s"] = walls, setups
	return nil
}

// tracedPass yields the per-layer metrics. Untraced and traced
// iterations alternate in one process so that their medians differ
// only by the recorder; on the checkpoint workload a third arm with
// Every:0 alternates with them and prices the checkpoint layer by
// difference, which is all that can be done from outside.
func tracedPass(cfg runConfig, prob algo.Problem, res *runResult, measure func(bool, obs.Recorder) (iteration, error)) error {
	w := cfg.Workload
	rounds := 3
	if cfg.Quick {
		rounds = 1
	} else if _, err := measure(w.Ckpt, nil); err != nil { // warm-up
		return err
	}
	var log spanLog
	tr := obs.NewTrace(traceSpans, w.K)
	var plain, traced, bare []float64
	per := map[string][]float64{} // per traced iteration, reduced to medians below
	add := func(name string, v float64) { per[name] = append(per[name], v) }

	for i := 0; i < rounds; i++ {
		u, err := measure(w.Ckpt, nil)
		if err != nil {
			return err
		}
		plain = append(plain, u.Wall.Seconds())
		steps := float64(u.Outcome.Stats.Supersteps)
		u.rt.metrics(u.Wall, 1, steps, add)
		add("wire.bytes_per_run", float64(u.Outcome.Wire.BytesSent))
		if w.Ckpt {
			add("checkpoint.count", steps)
			add("checkpoint.disk_bytes", float64(u.DiskBytes))
			b, err := measure(false, nil)
			if err != nil {
				return err
			}
			bare = append(bare, b.Wall.Seconds())
		}

		// The traced iteration: the benchmark's own spans around input
		// construction and the runner, the program's engine and frame
		// spans inside the runner, all under one iteration ID.
		root := log.begin("iteration", -1, i)
		viewMS, err := spanInput(&log, root, w, prob)
		if err != nil {
			return err
		}
		if prob.Sharded {
			add("gen.shard_build_ms", viewMS)
		} else {
			add("partition.machine_view_ms", viewMS)
		}
		tr.Reset()
		t, err := measure(w.Ckpt, tr)
		log.end(root)
		if err != nil {
			return err
		}
		// The runner span is the measured call itself, so the forced GC
		// before it and the checkpoint-directory handling around it
		// stay in the iteration's self time, not the runner's.
		run := log.add(span{Name: "run", Start: t.Start, End: t.Start + int64(t.Wall), Parent: root, Iter: i})
		traced = append(traced, t.Wall.Seconds())
		spans, c := tr.Spans(), tr.Counters()
		log.adopt(run, spans)
		phaseMetrics(w, c, 1, add)
		add(w.engine()+"compute_union_ms", ms(phaseUnion(spans, obs.PhaseCompute)))
		if w.On != onNode {
			add("core.coverage", obs.Summarize(spans).Coverage)
		}
		if cfg.TraceDir != "" && i == rounds-1 {
			if err := dumpTrace(cfg, spans); err != nil {
				return err
			}
		}
	}
	self := selfTimes(log.spans)
	for i, s := range log.spans {
		if s.Name == "run" {
			add("run.self_ms", ms(self[i]))
		}
	}
	for name, vs := range per {
		res.Metrics[name] = median(vs)
	}
	res.Metrics["obs.overhead_frac"] = median(traced)/median(plain) - 1
	if w.Ckpt {
		over := median(plain) - median(bare)
		res.Metrics["checkpoint.overhead_ms"] = over * 1e3
		res.Metrics["checkpoint.overhead_frac"] = over / median(bare)
	}
	res.Samples["traced_wall_s"], res.Samples["untraced_wall_s"] = traced, plain
	return microPass(cfg, prob, res.Metrics)
}

// engine is the metric prefix of the superstep loop the workload runs
// on: the in-process core engine or the node runtime.
func (w *workload) engine() string {
	if w.On == onNode || w.On == onJobs {
		return "node."
	}
	return "core."
}

// phaseMetrics turns a trace's phase totals over `runs` recorded runs
// into the per-run ledger. Totals are summed over the k machines;
// the plain _ms names divide by k to give the mean per machine. The
// core engine's exchange is one cluster-level span per superstep and
// is not divided.
func phaseMetrics(w *workload, c obs.Counters, runs float64, set func(string, float64)) {
	engine, k := w.engine(), float64(w.K)
	total := func(p obs.Phase) float64 { return ms(c.PhaseNs[p]) / runs }
	set(engine+"compute_ms", total(obs.PhaseCompute)/k)
	set(engine+"compute_sum_ms", total(obs.PhaseCompute))
	set(engine+"barrier_ms", total(obs.PhaseBarrier)/k)
	set(engine+"barrier_sum_ms", total(obs.PhaseBarrier))
	if engine == "node." {
		set("node.exchange_ms", total(obs.PhaseExchange)/k)
	} else {
		set("core.exchange_ms", total(obs.PhaseExchange))
	}
	set("tcp.frame_write_ms", total(obs.PhaseFrameWrite)/k)
	set("tcp.frame_read_ms", total(obs.PhaseFrameRead)/k)
	set("tcp.frame_decode_ms", total(obs.PhaseFrameDecode)/k)
	set("tcp.frames_sent", float64(c.FramesSent)/runs)
	set("tcp.bytes_sent", float64(c.BytesSent)/runs)
	set("obs.dropped_spans", float64(c.Dropped))
}

// dumpTrace writes the program's spans as one Chrome trace per workload.
func dumpTrace(cfg runConfig, spans []obs.Span) error {
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	return obs.WriteChromeTraceFile(filepath.Join(cfg.TraceDir, cfg.Workload.Name+".trace.json"), spans)
}

// spanInput builds the workload's partitioned input the way the
// runner will, with a span around the build and one around each
// MachineView, and returns the total of the view spans in ms. For a
// sharded input the views are where the generator replays its stream
// into CSR shards; for a materialised one they only window the graph.
func spanInput(log *spanLog, root int, w *workload, prob algo.Problem) (float64, error) {
	iter := log.spans[root].Iter
	b := log.begin("input.build", root, iter)
	var in partition.Input
	var err error
	if w.Algo == "dsort" { // a key multiset, not a graph
		in = algo.EdgelessInput(prob)
	} else {
		in, err = algo.GnpInput(withDefaultEdgeP(prob))
	}
	log.end(b)
	if err != nil {
		return 0, err
	}
	var total int64
	for m := 0; m < in.NumMachines(); m++ {
		v := log.begin("input.machine_view", root, iter)
		_, err := in.MachineView(transport.MachineID(m))
		log.end(v)
		if err != nil {
			return 0, err
		}
		total += log.spans[v].End - log.spans[v].Start
	}
	return ms(total), nil
}

func withDefaultEdgeP(prob algo.Problem) algo.Problem {
	if prob.EdgeP == 0 {
		prob.EdgeP = 10 / float64(prob.N)
	}
	return prob
}

// rtDelta is what the Go runtime and the kernel charged one interval.
type rtDelta struct {
	Mallocs    uint64
	AllocBytes uint64
	GCs        uint32
	GCPause    time.Duration
	CPU        time.Duration
}

func readRT() rtDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtDelta{Mallocs: m.Mallocs, AllocBytes: m.TotalAlloc, GCs: m.NumGC, GCPause: time.Duration(m.PauseTotalNs), CPU: cpu}
}

// metrics reports what `runs` runs of `steps` supersteps in all, taking
// wall, cost the process: per run, and as a share of the cores.
func (d rtDelta) metrics(wall time.Duration, runs, steps float64, set func(string, float64)) {
	set("core.allocs_per_superstep", float64(d.Mallocs)/steps)
	set("core.alloc_mb_per_run", float64(d.AllocBytes)/1e6/runs)
	set("rt.cpu_s", d.CPU.Seconds()/runs)
	set("rt.cpu_util", d.CPU.Seconds()/wall.Seconds()/float64(runtime.GOMAXPROCS(0)))
	set("rt.gc_cycles", float64(d.GCs)/runs)
	set("rt.gc_pause_ms", ms(d.GCPause)/runs)
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{Mallocs: a.Mallocs - b.Mallocs, AllocBytes: a.AllocBytes - b.AllocBytes,
		GCs: a.GCs - b.GCs, GCPause: a.GCPause - b.GCPause, CPU: a.CPU - b.CPU}
}

// peakRSSMB reads this process's high-water resident set from
// /proc/self/status. Each workload runs in a process of its own, so
// the mark belongs to that workload.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

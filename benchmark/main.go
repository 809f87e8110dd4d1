// Command benchmark is the repo's one performance benchmark: a fixed
// matrix of six workloads, each reporting the same end-to-end metrics
// from an untraced closed loop and a per-layer ledger from a traced and
// a micro pass, with the correctness of every measured run checked
// against a sequential oracle. README.md has the glossary.
//
//	go run ./benchmark                                  the whole matrix, summary + result file
//	go run ./benchmark -workload pagerank-tcp -trace 0  one workload, end-to-end metrics
//	go run ./benchmark -workload pagerank-tcp -trace 1  one workload, per-layer metrics
//	go run ./benchmark -compare a.json b.json           verdict per (workload, metric)
//
// It measures the program from outside — public functions, the public
// Recorder and checkpoint-sink hooks, and counters of its own process —
// and claims no gain itself.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	_ "kmachine/internal/algo/all"
)

// pinnedProcs is the GOMAXPROCS every run uses: the box has 2 cores,
// and a number measured at another setting is another number.
const pinnedProcs = 2

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print the pipeline's JSON line (default: the whole matrix, one child process per run)")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; the program under test only sees the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of one run's timed loop")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced + micro pass, per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny inputs, one iteration: a smoke test, not a measurement")
		traceDir = flag.String("trace-dir", "", "dump one Chrome trace per workload here (traced pass)")
		runs     = flag.Int("runs", 3, "matrix mode: untraced runs per workload; -compare needs at least 2 to see the run-to-run spread")
		out      = flag.String("out", ".bench_build/result.json", "matrix mode: result file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare base.json new.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *name != "":
		w := lookupWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		cfg := runConfig{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, TraceDir: *traceDir}
		if !runOne(cfg) {
			os.Exit(1)
		}
	default:
		ok, err := runMatrix(matrixConfig{Seed: *seed, Seconds: *seconds, Runs: *runs, Quick: *quick, TraceDir: *traceDir, Out: *out})
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// header is the environment a result was measured in.
type header struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Quick      bool    `json:"quick"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	// Loopback says whether traffic crossed the loopback interface. It
	// always does here: every listener binds 127.0.0.1:0.
	Loopback bool   `json:"loopback"`
	Started  string `json:"started"`
}

// newHeader leaves Commit to the caller: only the matrix parent, whose
// result file records it, asks git.
func newHeader(seed uint64, seconds float64, runs int, quick bool) header {
	return header{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Runs: runs, Quick: quick,
		LoadAvg1: loadAvg1(), Loopback: true, Started: time.Now().UTC().Format(time.RFC3339)}
}

func (h header) String() string {
	s := fmt.Sprintf("go=%s numcpu=%d gomaxprocs=%d seed=%d seconds=%g loadavg1=%.2f loopback=%v",
		h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds, h.LoadAvg1, h.Loopback)
	if h.Commit != "" {
		s += " commit=" + h.Commit
	}
	return s
}

// commit is the revision the binary was built from, as far as it can
// be known: the toolchain's VCS stamp, else git, else "unknown" (the
// pipeline's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value[:min(12, len(s.Value))]
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(data))[0], 64) // 0 when unreadable: the header is informational
	return v
}

// driverLine is the last line of a single-workload run's standard
// output: the contract with the pipeline.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// samplesPrefix marks the line carrying the per-iteration samples to
// the matrix parent; the pipeline only reads the last line.
const samplesPrefix = "#samples "

// runOne runs one workload in this process and prints every metric by
// name with its unit, then the pipeline's JSON line. It reports whether
// the run was correct.
func runOne(cfg runConfig) bool {
	fmt.Printf("# workload=%s trace=%v %v\n", cfg.Workload.Name, cfg.Trace, newHeader(cfg.Seed, cfg.Seconds, 1, cfg.Quick))
	res, err := runWorkload(cfg)
	if err != nil {
		fatal("%s: %v", cfg.Workload.Name, err)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	values, err := res.Metrics.emit(defs)
	if err != nil {
		fatal("%s: %v", cfg.Workload.Name, err)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %-8s", d.Name, values[d.Name].Value, d.Unit)
		if xs := res.Samples[d.Name]; len(xs) > 0 {
			q1, _, q3 := quartiles(xs)
			fmt.Printf(" q1=%.6g q3=%.6g n=%d", q1, q3, len(xs))
		}
		fmt.Println()
	}
	for _, p := range res.Problems {
		fmt.Printf("# FAIL %s\n", p)
	}
	line := driverLine{Correct: len(res.Problems) == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: values}
	fmt.Printf("# failure_rate=%g (%d of %d)\n", float64(line.Failed)/float64(line.Attempted), line.Failed, line.Attempted)
	samples, _ := json.Marshal(res.Samples) // map of float slices, cannot fail
	fmt.Printf("%s%s\n", samplesPrefix, samples)
	last, _ := json.Marshal(line) // plain struct, cannot fail
	fmt.Printf("%s\n", last)
	return line.Correct
}

// matrixConfig is one pass over all six workloads.
type matrixConfig struct {
	Seed     uint64
	Seconds  float64
	Runs     int
	Quick    bool
	TraceDir string
	Out      string
}

// series is one end-to-end metric of one workload over the untraced
// runs of a matrix pass: Value is the median of the per-run values,
// Q1/Q3 their quartiles — the run-to-run spread -compare judges by.
type series struct {
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	N     int       `json:"n"`
	Runs  []float64 `json:"runs"`
	// Iterations is the timed-iteration (or job) count behind each
	// run's value, for the metrics that are medians over iterations.
	Iterations []int `json:"iterations,omitempty"`
}

type workloadResult struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailureRate float64                `json:"failure_rate"`
	EndToEnd    map[string]*series     `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads. Claim is always
// null: this benchmark defines the numbers later changes are judged
// by and claims no gain itself.
type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
	Claim     *string           `json:"claim"`
}

// runMatrix runs every workload in child processes of this binary —
// Runs untraced runs and one traced run each, so peak RSS and GC state
// belong to one workload — prints the summary and writes the result
// file. It reports whether every run was correct.
func runMatrix(cfg matrixConfig) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Header: newHeader(cfg.Seed, cfg.Seconds, cfg.Runs, cfg.Quick)}
	file.Header.Commit = commit()
	fmt.Printf("# kmachine benchmark matrix: %v runs=%d\n", file.Header, cfg.Runs)
	ok := true
	for i := range workloads {
		w := &workloads[i]
		wr := &workloadResult{Name: w.Name, Why: w.Why, Correct: true, EndToEnd: map[string]*series{}}
		file.Workloads = append(file.Workloads, wr)
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = &series{Unit: d.Unit}
		}
		child := func(trace int) (driverLine, map[string][]float64, error) {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-trace", fmt.Sprint(trace)}
			if cfg.Quick {
				args = append(args, "-quick")
			}
			if cfg.TraceDir != "" {
				args = append(args, "-trace-dir", cfg.TraceDir)
			}
			line, samples, err := runChild(self, args)
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			wr.Correct = wr.Correct && line.Correct && err == nil
			return line, samples, err
		}
		for r := 0; r < cfg.Runs; r++ {
			line, samples, err := child(0)
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", w.Name, r+1, err)
			}
			for name, s := range wr.EndToEnd {
				s.Runs = append(s.Runs, line.Metrics[name].Value)
				if xs := samples[name]; len(xs) > 0 {
					s.Iterations = append(s.Iterations, len(xs))
				}
			}
		}
		line, _, err := child(1)
		if err != nil {
			return false, fmt.Errorf("%s traced run: %w", w.Name, err)
		}
		wr.PerLayer = line.Metrics
		wr.FailureRate = float64(wr.Failed) / float64(wr.Attempted)
		ok = ok && wr.Correct

		fmt.Printf("\n%s  correct=%v failure_rate=%g (%d of %d)\n", w.Name, wr.Correct, wr.FailureRate, wr.Failed, wr.Attempted)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			s.Q1, s.Value, s.Q3 = quartiles(s.Runs)
			s.N = len(s.Runs)
			fmt.Printf("  %-34s %16.6g %-8s q1=%.6g q3=%.6g runs=%d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-34s %16.6g %s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.Out), 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\n# wrote %s\n\"claim\": null\n", cfg.Out)
	return ok, nil
}

// runChild runs one single-workload child to completion and parses its
// contract line. The child's comment lines that report failures pass
// through; its standard error is this process's.
func runChild(self string, args []string) (driverLine, map[string][]float64, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var line driverLine
	var samples map[string][]float64
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("# FAIL")) {
			fmt.Printf("%s\n", l)
		}
		if rest, ok := bytes.CutPrefix(l, []byte(samplesPrefix)); ok {
			if err := json.Unmarshal(rest, &samples); err != nil {
				return line, nil, fmt.Errorf("child samples line: %w", err)
			}
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, nil, fmt.Errorf("child printed no result (%v): %w", runErr, err)
	}
	// A child that printed its line and exited 1 ran to the end and
	// found a wrong output; that is in the line, not an error here.
	return line, samples, nil
}

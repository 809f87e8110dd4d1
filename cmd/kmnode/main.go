// Command kmnode runs k-machine computations over real TCP sockets.
// Any algorithm in the registry (kmachine/internal/algo) can run —
// pagerank, triangle, conncomp, dsort, routing — because the registry
// erases every algorithm behind the same descriptor interface.
//
// Standalone mode starts ONE machine of the cluster in this process;
// the k processes (possibly on k hosts) find each other through the
// -peers list and run the distributed superstep protocol, every node
// ruling each superstep from the rows its peers ship with their
// batches — no machine coordinates the others:
//
//	kmnode -id 0 -k 4 -listen 127.0.0.1:9000 \
//	       -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//	       -algo pagerank -n 10000 -p 0.001 -seed 42
//	kmnode -id 1 -k 4 -listen 127.0.0.1:9001 -peers ... (same flags)
//	...
//
// Every node builds the same input deterministically from the shared
// seed (the random-vertex-partition input distribution of §1.1), so no
// input distribution round is needed — exactly the model's assumption
// that the input is already partitioned when the computation starts.
//
// Local mode spawns the entire k-machine cluster inside this process,
// every machine with its own listener and dialer on loopback TCP:
//
//	kmnode -local 8 -algo conncomp -n 10000 -p 0.001 -seed 42
//
// Either way the computation reports the measured round complexity
// (the paper's T) plus the algorithm's result summary, and the numbers
// are bit-identical to the in-process simulator on the same seed.
//
// Input setup is partition-local: each process builds only the CSR
// shards of the machines it hosts from the generator's per-row
// canonical stream — O((n+m)/k) memory per machine, never the full
// graph — and -input edges.txt ingests an edge-list file (full, or
// pre-split by -split-out) instead of generating G(n,p).
//
// Observability: -trace out.json records a wall-clock phase timeline
// (compute / barrier / exchange per machine and superstep, plus
// per-peer frame spans) and writes it as Chrome trace-event JSON —
// open it in chrome://tracing or Perfetto. -debug-addr serves
// net/http/pprof and expvar (see debug.go for the published gauges)
// while the run is in flight; -debug-linger keeps that server alive
// after the run so the final counters can still be scraped.
// Diagnostics go to stderr via log/slog — one human-readable line per
// event by default, `-log-format json` for machine consumption — with
// machine/superstep attribution attached as structured attrs whenever
// the runtime recorded it. Results (stats, summaries, hashes) stay on
// stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"kmachine/cmd/internal/cliutil"
	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/core"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
)

// logger is the process-wide diagnostic logger (stderr). It starts on
// the one-line text handler so even pre-flag failures render; main
// swaps in the JSON handler when -log-format json asks for it.
var logger = slog.New(newLineHandler(os.Stderr))

// tel is the process-wide telemetry state (trace recorder, trace output
// path, debug-server linger); zero means "not instrumented".
var tel telemetry

func main() {
	// A panic that escapes the runtime (a bug, not an expected failure)
	// must still come out as a one-line diagnostic and a non-zero exit,
	// not a raw stack trace: kmnode processes are cluster members, and
	// their exit status is what orchestration scripts key off.
	defer func() {
		if r := recover(); r != nil {
			fatal("internal panic", slog.Any("panic", r))
		}
	}()
	var (
		local     = flag.Int("local", 0, "spawn a full k-machine cluster over loopback TCP in this process")
		serve     = flag.Bool("serve", false, "daemon mode: build the standing mesh once (-local k sets its size) and serve the job-submission HTTP API on -debug-addr")
		id        = flag.Int("id", -1, "this node's machine ID (standalone mode)")
		k         = flag.Int("k", 0, "cluster size (standalone mode)")
		listen    = flag.String("listen", "", "listen address, e.g. 127.0.0.1:9000 (standalone mode)")
		peers     = flag.String("peers", "", "comma-separated k listen addresses in machine-ID order (standalone mode)")
		algoName  = flag.String("algo", "pagerank", "computation to run ("+strings.Join(algo.Names(), "|")+")")
		list      = flag.Bool("algos", false, "list registered algorithms and exit")
		n         = flag.Int("n", 10000, "number of vertices (keys for dsort, probes/machine for routing)")
		p         = flag.Float64("p", 0.0, "G(n,p) edge probability; 0 means 10/n")
		seed      = flag.Uint64("seed", 1, "seed for graph, partition, and machine randomness")
		bw        = flag.Int("bandwidth", 0, "per-link words/round; 0 means DefaultBandwidth(n)")
		eps       = flag.Float64("eps", 0.15, "PageRank reset probability")
		top       = flag.Int("top", 5, "how many top-ranked vertices to print")
		timeout   = flag.Duration("dial-timeout", 10*time.Second, "how long to wait for peers to come up")
		deadline  = flag.Duration("superstep-timeout", 0, "deadline for each whole superstep, local computation included; a crashed, wedged or too-slow machine surfaces as an attributed error within it (0 = none)")
		ckEvery   = flag.Int("checkpoint-every", 0, fmt.Sprintf("with -local k: capture a consistent cut of all k machines every s supersteps (0 = off); output and stats are unchanged, and a run that loses a machine is re-run from its newest cut, or from the start if it stored none, at most %d times", core.DefaultMaxRecoveries))
		ckDir     = flag.String("checkpoint-dir", "", "store checkpoints in this directory instead of memory only, as ckpt-<superstep>.kmck files (newest two kept; the format every runtime reads and writes; needs -checkpoint-every)")
		retain    = flag.Int("retain-jobs", 0, "daemon mode: keep at most this many job records, evicting finished ones oldest-first (0 = unbounded)")
		input     = flag.String("input", "", "read the graph from this edge-list file ('u v' per line, '#' comments) instead of generating G(n,p); -n still declares the vertex-ID space")
		splitOut  = flag.String("split-out", "", "split -input into per-machine edge-list files in this directory and exit (needs -local k or -k for the machine count)")
		trace     = flag.String("trace", "", "write a Chrome trace-event JSON phase timeline to this file (open in chrome://tracing or Perfetto)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :0 or 127.0.0.1:6060)")
		linger    = flag.Duration("debug-linger", 0, "keep the debug server alive this long after the run, so final counters can be scraped")
		logFormat = flag.String("log-format", "text", "diagnostic log format on stderr: text (one line per event) or json")
	)
	flag.Parse()

	switch *logFormat {
	case "text":
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal("unknown -log-format", slog.String("format", *logFormat), slog.String("supported", "text, json"))
	}

	if *list {
		for _, e := range algo.Entries() {
			fmt.Printf("%-10s %s\n", e.Name, e.Doc)
		}
		return
	}
	entry, ok := algo.Lookup(*algoName)
	if !ok {
		fatal("unknown -algo", slog.String("algo", *algoName), slog.String("supported", strings.Join(algo.Names(), ", ")))
	}

	prob := algo.Problem{N: *n, EdgeP: *p, Seed: *seed, Bandwidth: *bw, Eps: *eps, Top: *top,
		SuperstepTimeout: *deadline, InputPath: *input,
		Checkpoint: algo.CheckpointSpec{Every: *ckEvery, Dir: *ckDir}}
	switch {
	case *local >= 2:
		prob.K = *local
	case *id >= 0 && (*ckEvery != 0 || *ckDir != ""):
		fmt.Fprintln(os.Stderr, "kmnode: -checkpoint-every/-checkpoint-dir need -local k: one process of k (-id) can never complete a cut")
		os.Exit(2)
	case *id >= 0 || (*splitOut != "" && *k >= 2):
		prob.K = *k
	default:
		if *serve {
			fmt.Fprintln(os.Stderr, "kmnode: -serve needs -local k for the standing mesh size")
		} else {
			fmt.Fprintln(os.Stderr, "kmnode: need either -local k, or -id with -k/-listen/-peers")
		}
		flag.Usage()
		os.Exit(2)
	}

	if *splitOut != "" {
		if *input == "" {
			fatal("-split-out needs -input with the flat edge list to split")
		}
		paths, err := cliutil.SplitEdgeList(*input, *splitOut, prob.PartitionSpec())
		if err != nil {
			fatal("edge-list split failed", slog.String("input", *input), slog.Any("err", err))
		}
		for m, path := range paths {
			fmt.Printf("machine %d: %s\n", m, path)
		}
		return
	}

	// The trace recorder doubles as the debug plane's data source, so
	// either flag turns it on — and daemon mode always has one, since
	// its debug plane is re-scoped to the live job. With k known, the
	// per-peer wire counters get their lanes.
	if *trace != "" || *debugAddr != "" || *serve {
		tel = telemetry{trace: obs.NewTrace(0, prob.K), tracePath: *trace, linger: *linger}
		prob.Recorder = tel.trace
	}
	if *serve {
		// The daemon owns the debug mux (the job API mounts on it) and
		// only exits on signal, so the one-shot server and the trace
		// flush below don't apply.
		runServe(prob.K, *debugAddr, tel.trace, *retain)
		return
	}
	if *debugAddr != "" {
		addr, err := startDebugServer(*debugAddr, tel.trace)
		if err != nil {
			fatal("debug server failed to start", slog.String("addr", *debugAddr), slog.Any("err", err))
		}
		tel.debugOn = true
		logger.Info("debug server listening", slog.String("addr", addr))
	}

	if *local >= 2 {
		runLocal(entry, prob)
	} else {
		runStandalone(entry, prob, *id, *listen, *peers, *timeout)
	}
	tel.flush()
}

func runLocal(entry *algo.Entry, prob algo.Problem) {
	logger.Info("local cluster starting",
		slog.Int("k", prob.K), slog.String("algo", entry.Name),
		slog.Int("n", prob.N), slog.Uint64("seed", prob.Seed))
	start := time.Now()
	out, err := entry.Run(prob, transport.TCP)
	if err != nil {
		failRun("cluster failed", err)
	}
	printOutcome(out, time.Since(start))
}

func runStandalone(entry *algo.Entry, prob algo.Problem, id int, listen, peerList string, timeout time.Duration) {
	if prob.K < 2 || listen == "" || peerList == "" {
		fatal("standalone mode needs -k >= 2, -listen, and -peers")
	}
	peers := strings.Split(peerList, ",")
	if len(peers) != prob.K {
		fatal("-peers list does not match k", slog.Int("addresses", len(peers)), slog.Int("k", prob.K))
	}
	logger.Info("machine starting",
		slog.Int("machine", id), slog.Int("k", prob.K), slog.String("listen", listen),
		slog.String("algo", entry.Name), slog.Int("n", prob.N), slog.Uint64("seed", prob.Seed))

	start := time.Now()
	out, err := entry.RunStandalone(prob, node.Place{ID: id, Listen: listen, Peers: peers, DialTimeout: timeout})
	if err != nil {
		failRun("machine failed", err, slog.Int("self", id))
	}
	printOutcome(out, time.Since(start))
}

// failRun logs a run failure and exits non-zero. The machine/superstep
// attribution the runtime recorded — WHICH process of the cluster to
// look at, and when it died — rides along as structured attrs instead
// of being interpolated into the message.
func failRun(msg string, err error, extra ...any) {
	args := extra
	var me *transport.MachineError
	if errors.As(err, &me) {
		args = append(args,
			slog.Int("machine", int(me.Machine)),
			slog.Int("superstep", me.Superstep),
			slog.Any("err", me.Err))
	} else {
		args = append(args, slog.Any("err", err))
	}
	tel.flush()
	logger.Error(msg, args...)
	os.Exit(1)
}

// fatal logs a configuration or internal failure and exits non-zero.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func printOutcome(out *algo.Outcome, wall time.Duration) {
	if out.Stats != nil {
		printStats(out.Stats, wall)
	}
	if out.SetupTime > 0 || out.ExecTime > 0 {
		fmt.Printf("setup %v (input build) + run %v (supersteps)\n",
			out.SetupTime.Round(time.Millisecond), out.ExecTime.Round(time.Millisecond))
	}
	for _, line := range out.Summary {
		fmt.Println(line)
	}
	if out.Hash != 0 {
		fmt.Printf("output hash %016x\n", out.Hash)
	}
}

func printStats(s *core.Stats, wall time.Duration) {
	fmt.Printf("done in %v wall clock\n", wall.Round(time.Millisecond))
	fmt.Printf("rounds=%d supersteps=%d messages=%d words=%d maxRecvWords=%d\n",
		s.Rounds, s.Supersteps, s.Messages, s.Words, s.MaxRecvWords)
}

// telemetry is the optional observability state of a run: the span
// recorder feeding both the -trace export and the debug plane's
// expvars.
type telemetry struct {
	trace     *obs.Trace
	tracePath string
	linger    time.Duration
	debugOn   bool
}

// flush writes the trace file, prints the phase summary, and keeps the
// debug server lingering if asked. Called once on every exit path that
// ran (or attempted) a computation.
func (t *telemetry) flush() {
	if t.trace == nil {
		return
	}
	spans := t.trace.Spans()
	if sum := obs.Summarize(spans); sum.Supersteps > 0 {
		fmt.Printf("phases over %d supersteps: compute p50=%v max=%v | barrier p50=%v max=%v | exchange p50=%v max=%v | spans cover %.1f%% of %v wall\n",
			sum.Supersteps,
			time.Duration(sum.Compute.P50Ns), time.Duration(sum.Compute.MaxNs),
			time.Duration(sum.Barrier.P50Ns), time.Duration(sum.Barrier.MaxNs),
			time.Duration(sum.Exchange.P50Ns), time.Duration(sum.Exchange.MaxNs),
			100*sum.Coverage, time.Duration(sum.WallNs).Round(time.Millisecond))
	}
	if t.tracePath != "" {
		if err := obs.WriteChromeTraceFile(t.tracePath, spans); err != nil {
			logger.Error("trace write failed", slog.String("path", t.tracePath), slog.Any("err", err))
		} else {
			logger.Info("trace written", slog.String("path", t.tracePath), slog.Int("spans", len(spans)))
		}
	}
	if t.debugOn && t.linger > 0 {
		logger.Info("debug server lingering", slog.Duration("for", t.linger))
		time.Sleep(t.linger)
	}
}

// Command kmnode runs k-machine computations over the socket link: one
// machine per process over real TCP sockets (-id), or the whole cluster
// in one process over in-memory connections (-local, -serve).
// Any algorithm in the registry (kmachine/internal/algo) can run —
// pagerank, triangle, conncomp, dsort, routing — because the registry
// erases every algorithm behind the same descriptor interface.
//
// Standalone mode starts ONE machine of the cluster in this process;
// the k processes (possibly on k hosts) find each other through the
// -peers list and run the distributed superstep protocol, every node
// ruling each superstep from the rows its peers ship in their batch
// frames — no machine coordinates the others:
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
// every machine on its own socket link, each ordered pair joined by an
// in-memory connection that carries the same frames a socket would:
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
	"io"
	"log/slog"
	"net/http"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one kmnode invocation: where results and diagnostics go, and
// the run's optional telemetry (span recorder, -trace file, debug server).
type cli struct {
	stdout    io.Writer
	log       *slog.Logger
	trace     *obs.Trace
	tracePath string
	linger    time.Duration
	debug     *http.Server
}

// run is kmnode over args: results to stdout, diagnostics to stderr. It
// closes everything it opened and returns the exit status: 0 done, 1 a
// failed run or a rejected value, 2 a command line that names no mode.
func run(args []string, stdout, stderr io.Writer) (code int) {
	c := &cli{stdout: stdout, log: slog.New(newLineHandler(stderr))}
	// A panic that escapes the runtime (a bug, not an expected failure)
	// still comes out as one diagnostic line and a non-zero exit: kmnode
	// processes are cluster members, and orchestration keys off that.
	defer func() {
		if r := recover(); r != nil {
			code = c.fatal("internal panic", slog.Any("panic", r))
		}
	}()
	fs := flag.NewFlagSet("kmnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		local     = fs.Int("local", 0, "spawn a full k-machine cluster in this process, its machines linked by in-memory connections")
		serve     = fs.Bool("serve", false, "daemon mode: build the standing mesh once (-local k sets its size) and serve the job-submission HTTP API on -debug-addr")
		id        = fs.Int("id", -1, "this node's machine ID (standalone mode)")
		k         = fs.Int("k", 0, "cluster size (standalone mode)")
		listen    = fs.String("listen", "", "listen address, e.g. 127.0.0.1:9000 (standalone mode)")
		peers     = fs.String("peers", "", "comma-separated k listen addresses in machine-ID order (standalone mode)")
		algoName  = fs.String("algo", "pagerank", "computation to run ("+strings.Join(algo.Names(), "|")+")")
		list      = fs.Bool("algos", false, "list registered algorithms and exit")
		n         = fs.Int("n", 10000, "number of vertices (keys for dsort, probes/machine for routing)")
		p         = fs.Float64("p", 0.0, "G(n,p) edge probability; 0 means 10/n")
		seed      = fs.Uint64("seed", 1, "seed for graph, partition, and machine randomness")
		bw        = fs.Int("bandwidth", 0, "per-link words/round; 0 means DefaultBandwidth(n)")
		eps       = fs.Float64("eps", 0.15, "PageRank reset probability")
		top       = fs.Int("top", 5, "how many top-ranked vertices to print")
		timeout   = fs.Duration("dial-timeout", 10*time.Second, "how long to wait for peers to come up")
		deadline  = fs.Duration("superstep-timeout", 0, "deadline for each whole superstep, local computation included; a crashed, wedged or too-slow machine surfaces as an attributed error within it (0 = none)")
		ckEvery   = fs.Int("checkpoint-every", 0, fmt.Sprintf("with -local k: capture a consistent cut of all k machines every s supersteps (0 = off); output and stats are unchanged, and a run that loses a machine is re-run from its newest cut, or from the start if it stored none, at most %d times", core.DefaultMaxRecoveries))
		ckDir     = fs.String("checkpoint-dir", "", "store checkpoints in this directory instead of memory only, as ckpt-<superstep>.kmck files (newest two kept; needs -checkpoint-every); running the same command again resumes from its newest cut")
		retain    = fs.Int("retain-jobs", 0, "daemon mode: keep at most this many job records, evicting finished ones oldest-first (0 = unbounded)")
		input     = fs.String("input", "", "read the graph from this edge-list file ('u v' per line, '#' comments) instead of generating G(n,p); -n still declares the vertex-ID space")
		splitOut  = fs.String("split-out", "", "split -input into per-machine edge-list files in this directory and exit (needs -local k or -k for the machine count)")
		trace     = fs.String("trace", "", "write a Chrome trace-event JSON phase timeline to this file (open in chrome://tracing or Perfetto)")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :0 or 127.0.0.1:6060)")
		linger    = fs.Duration("debug-linger", 0, "keep the debug server alive this long after the run, so final counters can be scraped")
		logFormat = fs.String("log-format", "text", "diagnostic log format on stderr: text (one line per event) or json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch *logFormat {
	case "text":
	case "json":
		c.log = slog.New(slog.NewJSONHandler(stderr, nil))
	default:
		return c.fatal("unknown -log-format", slog.String("format", *logFormat), slog.String("supported", "text, json"))
	}
	if *retain < 0 {
		return c.fatal("-retain-jobs must be >= 0 (0 = unbounded)", slog.Int("retain-jobs", *retain))
	}

	if *list {
		for _, e := range algo.Entries() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.Name, e.Doc)
		}
		return 0
	}
	entry, ok := algo.Lookup(*algoName)
	if !ok {
		return c.fatal("unknown -algo", slog.String("algo", *algoName), slog.String("supported", strings.Join(algo.Names(), ", ")))
	}

	prob := algo.Problem{N: *n, EdgeP: *p, Seed: *seed, Bandwidth: *bw, Eps: *eps, Top: *top,
		SuperstepTimeout: *deadline, InputPath: *input,
		Checkpoint: algo.CheckpointSpec{Every: *ckEvery, Dir: *ckDir}}
	switch {
	case *local >= 2:
		prob.K = *local
	case *id >= 0 && (*ckEvery != 0 || *ckDir != ""):
		fmt.Fprintln(stderr, "kmnode: -checkpoint-every/-checkpoint-dir need -local k: one process of k (-id) can never complete a cut")
		return 2
	case *id >= 0 || (*splitOut != "" && *k >= 2):
		prob.K = *k
	default:
		if *serve {
			fmt.Fprintln(stderr, "kmnode: -serve needs -local k for the standing mesh size")
		} else {
			fmt.Fprintln(stderr, "kmnode: need either -local k, or -id with -k/-listen/-peers")
		}
		fs.Usage()
		return 2
	}

	if *splitOut != "" {
		if *input == "" {
			return c.fatal("-split-out needs -input with the flat edge list to split")
		}
		paths, err := cliutil.SplitEdgeList(*input, *splitOut, prob.PartitionSpec())
		if err != nil {
			return c.fatal("edge-list split failed", slog.String("input", *input), slog.Any("err", err))
		}
		for m, path := range paths {
			fmt.Fprintf(stdout, "machine %d: %s\n", m, path)
		}
		return 0
	}

	// The trace recorder doubles as the debug plane's data source, so
	// either flag turns it on — and daemon mode always has one, since
	// its debug plane is re-scoped to the live job. With k known, the
	// per-peer wire counters get their lanes.
	if *trace != "" || *debugAddr != "" || *serve {
		c.trace, c.tracePath, c.linger = obs.NewTrace(0, prob.K), *trace, *linger
		prob.Recorder = c.trace
	}
	if *serve {
		// The daemon owns the debug mux (the job API mounts on it) and
		// returns only on signal: no one-shot server, no trace flush.
		return c.serve(prob.K, *debugAddr, *retain)
	}
	if *debugAddr != "" {
		if err := c.startDebugServer(*debugAddr); err != nil {
			return c.fatal("debug server failed to start", slog.String("addr", *debugAddr), slog.Any("err", err))
		}
		defer c.debug.Close()
	}

	if *local >= 2 {
		return c.runLocal(entry, prob)
	}
	return c.runStandalone(entry, prob, *id, *listen, *peers, *timeout)
}

func (c *cli) runLocal(entry *algo.Entry, prob algo.Problem) int {
	c.log.Info("local cluster starting",
		slog.Int("k", prob.K), slog.String("algo", entry.Name),
		slog.Int("n", prob.N), slog.Uint64("seed", prob.Seed))
	start := time.Now()
	out, err := entry.Run(prob, transport.TCP)
	if err != nil {
		return c.failRun("cluster failed", err)
	}
	return c.printOutcome(out, time.Since(start))
}

func (c *cli) runStandalone(entry *algo.Entry, prob algo.Problem, id int, listen, peerList string, timeout time.Duration) int {
	if prob.K < 2 || listen == "" || peerList == "" {
		return c.fatal("standalone mode needs -k >= 2, -listen, and -peers")
	}
	peers := strings.Split(peerList, ",")
	if len(peers) != prob.K {
		return c.fatal("-peers list does not match k", slog.Int("addresses", len(peers)), slog.Int("k", prob.K))
	}
	c.log.Info("machine starting",
		slog.Int("machine", id), slog.Int("k", prob.K), slog.String("listen", listen),
		slog.String("algo", entry.Name), slog.Int("n", prob.N), slog.Uint64("seed", prob.Seed))

	start := time.Now()
	out, err := entry.RunStandalone(prob, node.Place{ID: id, Listen: listen, Peers: peers, DialTimeout: timeout})
	if err != nil {
		return c.failRun("machine failed", err, slog.Int("self", id))
	}
	return c.printOutcome(out, time.Since(start))
}

// failRun flushes the telemetry, logs a run failure and returns 1. The
// machine/superstep attribution the runtime recorded — WHICH process of
// the cluster to look at, and when it died — rides along as structured
// attrs instead of being interpolated into the message.
func (c *cli) failRun(msg string, err error, extra ...any) int {
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
	c.flush()
	return c.fatal(msg, args...)
}

// fatal logs a configuration or internal failure and returns 1.
func (c *cli) fatal(msg string, args ...any) int {
	c.log.Error(msg, args...)
	return 1
}

// printOutcome prints a finished run's results, flushes, and returns 0.
func (c *cli) printOutcome(out *algo.Outcome, wall time.Duration) int {
	if s := out.Stats; s != nil {
		fmt.Fprintf(c.stdout, "done in %v wall clock\n", wall.Round(time.Millisecond))
		fmt.Fprintf(c.stdout, "rounds=%d supersteps=%d messages=%d words=%d maxRecvWords=%d\n",
			s.Rounds, s.Supersteps, s.Messages, s.Words, s.MaxRecvWords)
	}
	if out.SetupTime > 0 || out.ExecTime > 0 {
		fmt.Fprintf(c.stdout, "setup %v (input build) + run %v (supersteps)\n",
			out.SetupTime.Round(time.Millisecond), out.ExecTime.Round(time.Millisecond))
	}
	for _, line := range out.Summary {
		fmt.Fprintln(c.stdout, line)
	}
	if out.Hash != 0 {
		fmt.Fprintf(c.stdout, "output hash %016x\n", out.Hash)
	}
	c.flush()
	return 0
}

// flush writes the trace file, prints the phase summary, and keeps the
// debug server lingering if asked. Called once on every exit path that
// ran (or attempted) a computation.
func (c *cli) flush() {
	if c.trace == nil {
		return
	}
	spans := c.trace.Spans()
	if sum := obs.Summarize(spans); sum.Supersteps > 0 {
		fmt.Fprintf(c.stdout, "phases over %d supersteps: compute p50=%v max=%v | barrier p50=%v max=%v | exchange p50=%v max=%v | spans cover %.1f%% of %v wall\n",
			sum.Supersteps,
			time.Duration(sum.Compute.P50Ns), time.Duration(sum.Compute.MaxNs),
			time.Duration(sum.Barrier.P50Ns), time.Duration(sum.Barrier.MaxNs),
			time.Duration(sum.Exchange.P50Ns), time.Duration(sum.Exchange.MaxNs),
			100*sum.Coverage, time.Duration(sum.WallNs).Round(time.Millisecond))
	}
	if c.tracePath != "" {
		if err := obs.WriteChromeTraceFile(c.tracePath, spans); err != nil {
			c.log.Error("trace write failed", slog.String("path", c.tracePath), slog.Any("err", err))
		} else {
			c.log.Info("trace written", slog.String("path", c.tracePath), slog.Int("spans", len(spans)))
		}
	}
	if c.debug != nil && c.linger > 0 {
		c.log.Info("debug server lingering", slog.Duration("for", c.linger))
		time.Sleep(c.linger)
	}
}

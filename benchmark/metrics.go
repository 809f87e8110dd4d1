package main

import "fmt"

// metricDef names one reported quantity. The two tables below are the
// benchmark's contract with BENCHMARK.json (TestBenchmarkJSONMatchesTables
// keeps them identical); the comment on each entry is its glossary line.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before -compare says "worse" (and the driver
	// rejects a PR). Per-layer metrics carry none.
	Bound float64
	// Exact marks a count that repeats bit-for-bit for a fixed seed;
	// -compare holds two same-seed files to a bound of zero on it.
	Exact bool
}

// endToEnd is what a user of the system sees. Every workload reports
// every metric and none is ever 0, so one table serves all six rows.
var endToEnd = []metricDef{
	// median submit→result wall clock of the runner call, input setup included; on jobs-mix the median client-observed submit→terminal latency
	{Name: "run_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// median Outcome.SetupTime (generate/ingest + partition + every MachineView); on jobs-mix the median per-job SetupTime
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// VmHWM of the workload's process when the timed loop ends, before the reference run and oracles
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	// completed runs per second of the closed loop (one run = one job); on jobs-mix completed jobs ÷ (last terminal − first submit)
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// Stats.Rounds of one run — the paper's ledger; on jobs-mix the sum over one ten-job block
	{Name: "model_rounds", Unit: "rounds", Better: "lower", Bound: 0.25, Exact: true},
	// Stats.Words of one run; on jobs-mix the sum over one ten-job block
	{Name: "model_words", Unit: "words", Better: "lower", Bound: 0.25, Exact: true},
}

// perLayer is the ledger of single layers. T = traced pass, M = micro
// pass, C = counters around the untraced iterations of the traced run.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "gen.full_build_ms", Unit: "ms", Better: "lower"},         // M: algo.GnpInput (materialised graph + RVP) at the workload's N and EdgeP
	{Name: "gen.shard_build_ms", Unit: "ms", Better: "lower"},        // T: sum of the k sharded MachineView calls (canonical-stream replay into CSR shards)
	{Name: "gen.edges_per_s", Unit: "1/s", Better: "higher"},         // M: edges of the full build ÷ its time
	{Name: "partition.machine_view_ms", Unit: "ms", Better: "lower"}, // T: sum of the k MachineView calls on a materialised input
	{Name: "partition.row_lookup_ns", Unit: "ns", Better: "lower"},   // M: LocalView.OutAdj of a local vertex

	{Name: "core.compute_ms", Unit: "ms", Better: "lower"},              // T: compute span total ÷ k (mean per machine)
	{Name: "core.compute_sum_ms", Unit: "ms", Better: "lower"},          // T: compute span total over machines; exceeds wall when k > cores
	{Name: "core.compute_union_ms", Unit: "ms", Better: "lower"},        // T: wall clock during which at least one machine was in Step
	{Name: "core.barrier_ms", Unit: "ms", Better: "lower"},              // T: barrier span total ÷ k
	{Name: "core.barrier_sum_ms", Unit: "ms", Better: "lower"},          // T: barrier span total over machines
	{Name: "core.exchange_ms", Unit: "ms", Better: "lower"},             // T: total of the cluster-level exchange spans (one per superstep)
	{Name: "core.coverage", Unit: "fraction", Better: "higher"},         // T: obs.Summarize coverage — union of engine spans ÷ their extent
	{Name: "core.superstep_floor_ns_k8", Unit: "ns", Better: "lower"},   // M: one superstep of 8 no-op machines over inmem
	{Name: "core.superstep_floor_ns_k27", Unit: "ns", Better: "lower"},  // M: one superstep of 27 no-op machines over inmem
	{Name: "core.allocs_per_superstep", Unit: "count", Better: "lower"}, // C: heap objects allocated per superstep of an untraced run, setup included
	{Name: "core.alloc_mb_per_run", Unit: "MB", Better: "lower"},        // C: bytes allocated per untraced run
	{Name: "run.self_ms", Unit: "ms", Better: "lower"},                  // T: runner span minus the time its engine spans cover — setup, mesh connect, machine build, merge

	{Name: "graph.seq_pagerank_ms", Unit: "ms", Better: "lower"},  // M: single-threaded PowerIterationPageRank on the workload's graph
	{Name: "graph.seq_triangles_ms", Unit: "ms", Better: "lower"}, // M: single-threaded EnumerateTriangles on the workload's graph

	{Name: "inmem.exchange_ns_per_env_small", Unit: "ns", Better: "lower"}, // M: inmem Exchange, k=8, 1 envelope per link
	{Name: "inmem.exchange_ns_per_env_bulk", Unit: "ns", Better: "lower"},  // M: inmem Exchange, k=2, 64 Ki envelopes per link

	{Name: "wire.encode_ns_per_env_small", Unit: "ns", Better: "lower"}, // M: AppendBatchV2, 64 pagerank envelopes (≈ one pagerank-tcp frame)
	{Name: "wire.encode_ns_per_env_bulk", Unit: "ns", Better: "lower"},  // M: AppendBatchV2, 64 Ki dsort envelopes
	{Name: "wire.decode_ns_per_env_small", Unit: "ns", Better: "lower"}, // M: DecodeBatchAnyInto of the small batch
	{Name: "wire.decode_ns_per_env_bulk", Unit: "ns", Better: "lower"},  // M: DecodeBatchAnyInto of the bulk batch
	{Name: "wire.bytes_per_env_bulk", Unit: "bytes", Better: "lower"},   // M: encoded size of the bulk batch ÷ envelopes
	{Name: "wire.frame_rw_ns", Unit: "ns", Better: "lower"},             // M: WriteFrame + ReadFrameInto of the small batch through bufio
	{Name: "wire.bytes_per_run", Unit: "bytes", Better: "lower"},        // C: Outcome.Wire.BytesSent of one run (the issue's wire_bytes); 0 on inmem and, today, on the node runtime

	{Name: "tcp.mesh_connect_ms", Unit: "ms", Better: "lower"},           // M: tcp.New with k=8 (listeners, k·(k-1) dials, handshakes)
	{Name: "tcp.exchange_us_small", Unit: "us", Better: "lower"},         // M: Transport.Exchange, k=8, 1 pagerank envelope per link
	{Name: "tcp.exchange_mb_per_s_bulk", Unit: "MB/s", Better: "higher"}, // M: Transport.Exchange, k=2, 64 Ki dsort envelopes per link: on-wire bytes ÷ time
	{Name: "tcp.allocs_per_exchange", Unit: "count", Better: "lower"},    // M: heap objects per small Exchange
	{Name: "tcp.frame_write_ms", Unit: "ms", Better: "lower"},            // T: frame-write span total ÷ k
	{Name: "tcp.frame_read_ms", Unit: "ms", Better: "lower"},             // T: frame-read span total ÷ k — mostly stall on the peer
	{Name: "tcp.frame_decode_ms", Unit: "ms", Better: "lower"},           // T: frame-decode span total ÷ k
	{Name: "tcp.frames_sent", Unit: "count", Better: "lower"},            // T: data frames written in one run (Trace.Counters)
	{Name: "tcp.bytes_sent", Unit: "bytes", Better: "lower"},             // T: data-frame bytes written in one run (Trace.Counters)

	{Name: "node.compute_ms", Unit: "ms", Better: "lower"},         // T: compute span total ÷ k on the node runtime
	{Name: "node.compute_sum_ms", Unit: "ms", Better: "lower"},     // T: compute span total over machines on the node runtime
	{Name: "node.compute_union_ms", Unit: "ms", Better: "lower"},   // T: wall clock during which at least one node was in Step
	{Name: "node.barrier_ms", Unit: "ms", Better: "lower"},         // T: report/verdict round total ÷ k
	{Name: "node.barrier_sum_ms", Unit: "ms", Better: "lower"},     // T: report/verdict round total over machines
	{Name: "node.exchange_ms", Unit: "ms", Better: "lower"},        // T: per-node exchange span total ÷ k
	{Name: "node.superstep_floor_ns", Unit: "ns", Better: "lower"}, // M: one superstep of a no-op algorithm through algo.NodeRunLocal, k=8
	{Name: "node.mesh_build_ms", Unit: "ms", Better: "lower"},      // M: node.NewLocalMesh(8)

	{Name: "checkpoint.overhead_ms", Unit: "ms", Better: "lower"},         // C: median run with Every:1 minus median run with Every:0, interleaved
	{Name: "checkpoint.overhead_frac", Unit: "fraction", Better: "lower"}, // C: checkpoint.overhead_ms ÷ the Every:0 median
	{Name: "checkpoint.count", Unit: "count", Better: "lower"},            // C: supersteps of the checkpointed run (Every:1 captures each)
	{Name: "checkpoint.disk_bytes", Unit: "bytes", Better: "lower"},       // C: bytes left in Checkpoint.Dir after a run
	{Name: "checkpoint.file_put_ms_p50", Unit: "ms", Better: "lower"},     // M: median core.FileSink.Put on an inmem run of the same problem
	{Name: "checkpoint.bytes_per_ckpt", Unit: "bytes", Better: "lower"},   // M: mean blob size handed to that sink

	{Name: "jobs.mesh_build_ms", Unit: "ms", Better: "lower"},          // M: jobs.NewMeshBackend(8)
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower"},      // C: median Started − Submitted
	{Name: "jobs.queue_wait_ms_p90", Unit: "ms", Better: "lower"},      // C: p90 of Started − Submitted
	{Name: "jobs.exec_ms_p50", Unit: "ms", Better: "lower"},            // C: median Finished − Started
	{Name: "jobs.attach_overhead_ms_p50", Unit: "ms", Better: "lower"}, // C: median (Finished − Started) − SetupTime − ExecTime
	{Name: "jobs.http_overhead_ms_p50", Unit: "ms", Better: "lower"},   // C: median client latency − (Finished − Submitted); includes half a poll interval
	{Name: "jobs.latency_p90_ms", Unit: "ms", Better: "lower"},         // C: p90 of client-observed latency (the issue's job_latency_p95_s, see README)
	{Name: "jobs.polls_per_job", Unit: "count", Better: "lower"},       // C: mean GETs until terminal
	{Name: "jobs.done", Unit: "count", Better: "higher"},               // C: scheduler gauge at the end of the run
	{Name: "jobs.failed", Unit: "count", Better: "lower"},              // C: scheduler gauge at the end of the run
	{Name: "jobs.rebuilds", Unit: "count", Better: "lower"},            // C: mesh rebuilds during the run

	{Name: "obs.record_ns", Unit: "ns", Better: "lower"},           // M: one Trace.Record
	{Name: "obs.overhead_frac", Unit: "fraction", Better: "lower"}, // traced median ÷ untraced median − 1, interleaved iterations of one process
	{Name: "obs.dropped_spans", Unit: "count", Better: "lower"},    // T: spans that fell off the trace ring

	{Name: "rt.cpu_s", Unit: "s", Better: "lower"},            // C: user+system CPU of one untraced run (getrusage)
	{Name: "rt.cpu_util", Unit: "fraction", Better: "higher"}, // C: rt.cpu_s ÷ wall ÷ GOMAXPROCS — is the second core used
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},    // C: GC cycles during one untraced run
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},     // C: stop-the-world pause total during one untraced run
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]float64

// emit renders the set as the driver's "metrics" object: every metric
// of defs by name with its unit, absent per-layer ones as 0. A name
// outside defs is a bug in the benchmark, not in the program under test.
func (m metricSet) emit(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in the table", name)
		}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

package main

import (
	"encoding/json"
	"expvar"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"

	"kmachine/internal/jobs"
	"kmachine/internal/obs"
)

// This file is kmnode's debug plane — the seed of the resident
// daemon's control surface (ROADMAP item 1). -debug-addr serves:
//
//	/debug/pprof/...   the standard net/http/pprof profiles
//	/debug/vars        expvar JSON, including the kmachine.* gauges
//
// The kmachine.* expvars are all derived live from the run's trace
// recorder, so they move while the computation is in flight:
//
//	kmachine.superstep.current   highest superstep any span reached
//	                             (-1 before the first; the "where is
//	                             the run now" gauge)
//	kmachine.supersteps          supersteps entered so far (current+1)
//	kmachine.wire.bytes_sent     batch-frame bytes shipped (frame spans;
//	kmachine.wire.bytes_recv     blame frames are not span-recorded —
//	kmachine.wire.frames_sent    WireStats remains the physical total)
//	kmachine.wire.frames_recv
//	kmachine.wire.per_peer       the same four counters broken down by
//	                             peer machine ID (JSON array, index =
//	                             machine; a hot or stalling peer shows
//	                             up as a skewed lane)
//	kmachine.trace.spans         spans recorded so far
//	kmachine.trace.dropped       spans that fell off the ring
func (c *cli) startDebugServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.debug = &http.Server{Handler: newDebugMux(traceGauges(c.trace))}
	go c.debug.Serve(ln)
	c.log.Info("debug server listening", slog.String("addr", ln.Addr().String()))
	return nil
}

// gauges are one debug server's kmachine.* expvars, read per scrape.
type gauges map[string]func() any

// newDebugMux builds the debug plane's mux — pprof plus the expvar
// gauges — without binding it to a listener, so -serve can mount the
// job-service API on the same mux (serve.go). The gauges belong to the
// mux, not to expvar's process-wide registry, so every server reads
// its own run's trace.
func newDebugMux(g gauges) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		vars := map[string]any{}
		expvar.Do(func(kv expvar.KeyValue) { vars[kv.Key] = json.RawMessage(kv.Value.String()) })
		for name, read := range g {
			vars[name] = read()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(vars)
	})
	return mux
}

func traceGauges(tr *obs.Trace) gauges {
	return gauges{
		"kmachine.superstep.current": func() any { return tr.Counters().CurrentSuperstep },
		"kmachine.supersteps":        func() any { return tr.Counters().SuperstepsStarted },
		"kmachine.wire.bytes_sent":   func() any { return tr.Counters().BytesSent },
		"kmachine.wire.bytes_recv":   func() any { return tr.Counters().BytesRecv },
		"kmachine.wire.frames_sent":  func() any { return tr.Counters().FramesSent },
		"kmachine.wire.frames_recv":  func() any { return tr.Counters().FramesRecv },
		"kmachine.wire.per_peer":     func() any { return tr.Counters().PerPeer },
		"kmachine.trace.spans":       func() any { return tr.Counters().Total },
		"kmachine.trace.dropped":     func() any { return tr.Counters().Dropped },
	}
}

// jobGauges adds the scheduler's gauges to the trace-fed kmachine.*
// set. The trace gauges are Reset per job by the scheduler, so under
// -serve they describe the LIVE job; kmachine.job.current says which
// job that is, and the kmachine.jobs.* counters accumulate over the
// daemon's lifetime.
func (g gauges) jobGauges(s *jobs.Scheduler) gauges {
	g["kmachine.job.current"] = func() any { return s.Stats().Running }
	g["kmachine.jobs.queued"] = func() any { return s.Stats().Queued }
	g["kmachine.jobs.done"] = func() any { return s.Stats().Done }
	g["kmachine.jobs.failed"] = func() any { return s.Stats().Failed }
	g["kmachine.jobs.canceled"] = func() any { return s.Stats().Canceled }
	g["kmachine.jobs.mesh_rebuilds"] = func() any { return s.Stats().Rebuilds }
	g["kmachine.jobs.recovered"] = func() any { return s.Stats().Recovered }
	g["kmachine.jobs.evicted"] = func() any { return s.Stats().Evicted }
	g["kmachine.jobs.draining"] = func() any { return s.Stats().Draining }
	return g
}

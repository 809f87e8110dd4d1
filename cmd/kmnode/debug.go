package main

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

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
//	kmachine.wire.bytes_sent     batch and row bytes shipped (frame spans;
//	kmachine.wire.bytes_recv     blame frames are not span-recorded —
//	kmachine.wire.frames_sent    WireStats remains the physical total)
//	kmachine.wire.frames_recv
//	kmachine.wire.per_peer       the same four counters broken down by
//	                             peer machine ID (JSON array, index =
//	                             machine; a hot or stalling peer shows
//	                             up as a skewed lane)
//	kmachine.trace.spans         spans recorded so far
//	kmachine.trace.dropped       spans that fell off the ring
func startDebugServer(addr string, tr *obs.Trace) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// The server lives for the process lifetime; kmnode exits when the
	// run (plus -debug-linger) is over, which is this server's teardown.
	go http.Serve(ln, newDebugMux(tr))
	return ln.Addr().String(), nil
}

// newDebugMux builds the debug plane's mux — pprof plus the expvar
// gauges — without binding it to a listener, so -serve can mount the
// job-service API on the same mux (serve.go) while single-run mode
// keeps the fire-and-forget server above.
func newDebugMux(tr *obs.Trace) *http.ServeMux {
	publishExpvars(tr)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// publishOnce guards the expvar registrations: expvar.Publish panics on
// duplicates, and tests may start more than one server per process.
var publishOnce sync.Once

// publishJobOnce guards the job-service expvars the same way.
var publishJobOnce sync.Once

// publishJobExpvars adds the scheduler's gauges next to the trace-fed
// kmachine.* set. The trace gauges are Reset per job by the scheduler,
// so under -serve they describe the LIVE job; kmachine.job.current says
// which job that is, and the kmachine.jobs.* counters accumulate over
// the daemon's lifetime.
func publishJobExpvars(s *jobs.Scheduler) {
	publishJobOnce.Do(func() {
		gauge := func(name string, read func(st jobs.Stats) any) {
			expvar.Publish(name, expvar.Func(func() any { return read(s.Stats()) }))
		}
		gauge("kmachine.job.current", func(st jobs.Stats) any { return st.Running })
		gauge("kmachine.jobs.queued", func(st jobs.Stats) any { return st.Queued })
		gauge("kmachine.jobs.done", func(st jobs.Stats) any { return st.Done })
		gauge("kmachine.jobs.failed", func(st jobs.Stats) any { return st.Failed })
		gauge("kmachine.jobs.canceled", func(st jobs.Stats) any { return st.Canceled })
		gauge("kmachine.jobs.mesh_rebuilds", func(st jobs.Stats) any { return st.Rebuilds })
		gauge("kmachine.jobs.recovered", func(st jobs.Stats) any { return st.Recovered })
		gauge("kmachine.jobs.evicted", func(st jobs.Stats) any { return st.Evicted })
		gauge("kmachine.jobs.draining", func(st jobs.Stats) any { return st.Draining })
	})
}

func publishExpvars(tr *obs.Trace) {
	publishOnce.Do(func() {
		gauge := func(name string, read func(c obs.Counters) any) {
			expvar.Publish(name, expvar.Func(func() any { return read(tr.Counters()) }))
		}
		gauge("kmachine.superstep.current", func(c obs.Counters) any { return c.CurrentSuperstep })
		gauge("kmachine.supersteps", func(c obs.Counters) any { return c.SuperstepsStarted })
		gauge("kmachine.wire.bytes_sent", func(c obs.Counters) any { return c.BytesSent })
		gauge("kmachine.wire.bytes_recv", func(c obs.Counters) any { return c.BytesRecv })
		gauge("kmachine.wire.frames_sent", func(c obs.Counters) any { return c.FramesSent })
		gauge("kmachine.wire.frames_recv", func(c obs.Counters) any { return c.FramesRecv })
		gauge("kmachine.wire.per_peer", func(c obs.Counters) any { return c.PerPeer })
		gauge("kmachine.trace.spans", func(c obs.Counters) any { return c.Total })
		gauge("kmachine.trace.dropped", func(c obs.Counters) any { return c.Dropped })
	})
}

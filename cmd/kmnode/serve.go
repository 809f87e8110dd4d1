package main

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"kmachine/internal/jobs"
)

// This file is kmnode's daemon mode. `kmnode -serve -local k` builds
// the standing k-machine mesh ONCE and runs a job service over it:
//
//	kmnode -serve -local 8 -debug-addr 127.0.0.1:6060
//
// The HTTP/JSON control API lives on the -debug-addr mux next to pprof
// and expvar (127.0.0.1:0 when the flag is omitted):
//
//	POST /api/v1/jobs       {"algo":"pagerank","n":10000,"seed":42}
//	GET  /api/v1/jobs/{id}  status; done jobs carry result + output hash
//	GET  /api/v1/jobs       all jobs
//	GET  /api/v1/status     scheduler gauges (queue depth, mesh health)
//	POST /api/v1/drain      stop intake, wait until idle
//
// Shutdown: the first SIGINT/SIGTERM drains — in-flight and queued
// jobs finish, new submissions get 503 — then the mesh closes and the
// process exits 0. A second signal force-aborts the in-flight job
// through its context; teardown still completes cleanly.
func (c *cli) serve(k int, addr string, retainJobs int) int {
	if k < 2 {
		return c.fatal("-serve needs -local k with k >= 2 for the standing mesh size")
	}
	addr = cmp.Or(addr, "127.0.0.1:0")
	backend, err := jobs.NewMeshBackend(k)
	if err != nil {
		return c.fatal("standing mesh failed to build", slog.Int("k", k), slog.Any("err", err))
	}
	sched := jobs.New(backend, jobs.Options{Trace: c.trace, MaxJobs: retainJobs})
	mux := newDebugMux(traceGauges(c.trace).jobGauges(sched))
	sched.RegisterAPI(mux)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sched.Close()
		return c.fatal("job service failed to listen", slog.String("addr", addr), slog.Any("err", err))
	}
	srv := &http.Server{Handler: mux}
	serveDone := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(serveDone)
	}()
	c.log.Info("job service listening", slog.String("addr", ln.Addr().String()), slog.Int("k", k))
	// The address also goes to stdout so scripts can scrape it when the
	// OS picked the port.
	fmt.Fprintf(c.stdout, "serving on %s\n", ln.Addr())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	c.log.Info("drain started", slog.String("signal", sig.String()))
	go func() { // ends when sigc closes
		for sig2 := range sigc {
			c.log.Warn("force-aborting in-flight job", slog.String("signal", sig2.String()))
			sched.Abort()
		}
	}()
	if err := sched.Drain(context.Background()); err != nil {
		c.log.Error("drain failed", slog.Any("err", err))
	}
	if err := sched.Close(); err != nil {
		c.log.Error("scheduler close failed", slog.Any("err", err))
	}
	srv.Close()
	<-serveDone
	signal.Stop(sigc)
	close(sigc)
	st := sched.Stats()
	c.log.Info("job service stopped", slog.Int64("done", st.Done), slog.Int64("failed", st.Failed))
	return 0
}

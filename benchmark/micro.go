package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"time"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/dsort"
	"kmachine/internal/gen"
	"kmachine/internal/jobs"
	"kmachine/internal/obs"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// The micro pass times single public functions on synthetic input, for
// the layers a whole run cannot isolate. Sizes mirror the two traffic
// shapes of the matrix: "small" is one pagerank-tcp frame (64
// envelopes, ~500 bytes), "bulk" one dsort-tcp-bulk link (64 Ki
// envelopes). Bulk exchanges use k=2 — two links — because 64 Ki
// envelopes on all 56 links of k=8 would hold 400 MB of envelopes.
const (
	smallEnvs = 64
	bulkEnvs  = 64 << 10
)

// reps scales a micro's repetition count down under -quick.
func (cfg runConfig) reps(n int) int {
	if cfg.Quick {
		return max(1, n/50)
	}
	return n
}

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

// medianOf runs f n times and returns the median of what it reports.
func medianOf(n int, f func() (float64, error)) (float64, error) {
	vs := make([]float64, n)
	for i := range vs {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vs[i] = v
	}
	return median(vs), nil
}

func microPass(cfg runConfig, prob algo.Problem, m metricSet) error {
	return errors.Join(
		microGen(cfg, prob, m),
		microCore(cfg, m),
		microInMem(cfg, m),
		microWire(cfg, m),
		microTCP(cfg, m),
		microNode(cfg, m),
		microCheckpoint(cfg, prob, m),
		microObs(cfg, m),
	)
}

// microGen times the materialised build of the workload's graph and a
// row lookup on one CSR shard of it. Edgeless problems (dsort, the job
// mix's routing) have no graph to generate and leave the metrics at 0.
func microGen(cfg runConfig, prob algo.Problem, m metricSet) error {
	w := cfg.Workload
	if w.On == onJobs {
		// The mix's densest graph job stands in for the workload.
		spec := newJobMix(cfg.Seed, cfg.Quick).slots[7]
		prob = algo.Problem{N: spec.N, K: w.K, Seed: spec.Seed}
	} else if w.Algo == "dsort" {
		return nil
	}
	prob = withDefaultEdgeP(prob)
	prob.Sharded = false
	var edges int
	buildMS, err := medianOf(3, func() (float64, error) {
		t0 := time.Now()
		in, err := algo.GnpInput(prob)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		edges = in.(*partition.VertexPartition).G.M()
		return ms(d), nil
	})
	if err != nil {
		return err
	}
	m["gen.full_build_ms"] = buildMS
	m["gen.edges_per_s"] = float64(edges) / (buildMS / 1e3)

	shard := gen.GnpShard(prob.PartitionSpec(), prob.EdgeP, prob.Seed, 0)
	locals := shard.Locals()
	var sink int
	passes := cfg.reps(200)
	m["partition.row_lookup_ns"] = perOp(passes, func() {
		for _, v := range locals {
			sink += len(shard.OutAdj(v))
		}
	}) / float64(len(locals))
	runtime.KeepAlive(sink)
	return nil
}

// idle is a machine that sends nothing for a fixed number of
// supersteps: what is left of a superstep is the engine's own cost.
type idle struct{ left int }

func (m *idle) Step(*core.StepContext, []core.Envelope[struct{}]) ([]core.Envelope[struct{}], bool) {
	m.left--
	return nil, m.left <= 0
}

func (m *idle) Output() struct{} { return struct{}{} }

// nothing encodes the idle machines' empty message for substrates that
// insist on a codec.
type nothing struct{}

func (nothing) Append(dst []byte, _ struct{}) ([]byte, error) { return dst, nil }
func (nothing) Decode([]byte) (struct{}, int, error)          { return struct{}{}, 0, nil }

func microCore(cfg runConfig, m metricSet) error {
	steps := cfg.reps(5000)
	for _, c := range []struct {
		k    int
		name string
	}{{8, "core.superstep_floor_ns_k8"}, {27, "core.superstep_floor_ns_k27"}} {
		cl := core.NewCluster(core.Config{K: c.k, Bandwidth: 1, DropPerSuperstep: true},
			func(core.MachineID) core.Machine[struct{}] { return &idle{left: steps} })
		t0 := time.Now()
		st, err := cl.Run()
		if err != nil {
			return err
		}
		m[c.name] = float64(time.Since(t0)) / float64(st.Supersteps)
	}
	return nil
}

// links fills outs so that every ordered pair of distinct machines
// carries per envelopes built by mk.
func links[M any](k, per int, mk func(i int) M) [][]transport.Envelope[M] {
	outs := make([][]transport.Envelope[M], k)
	for from := range outs {
		for to := 0; to < k; to++ {
			if to == from {
				continue
			}
			for i := 0; i < per; i++ {
				outs[from] = append(outs[from], transport.Envelope[M]{
					From: transport.MachineID(from), To: transport.MachineID(to), Words: 1, Msg: mk(i)})
			}
		}
	}
	return outs
}

func pagerankMsg(i int) pagerank.Wire {
	var w pagerank.Wire
	w.Final, w.Msg.V, w.Msg.Count = transport.MachineID(i%8), int32(i*131), int64(1+i%5)
	return w
}

func dsortMsg(i int) dsort.Wire {
	var w dsort.Wire
	w.Final, w.Msg.Kind, w.Msg.Value = transport.MachineID(i%8), 1, uint64(i)*0x9e3779b97f4a7c15>>1
	return w
}

// exchangeNS runs warm untimed exchanges (buffers grow, pipelines
// start), then n timed ones, and returns nanoseconds per timed call.
// between, when set, runs at the boundary.
func exchangeNS[M any](t transport.Transport[M], outs [][]transport.Envelope[M], warm, n int, between func()) (float64, error) {
	ctx := context.Background()
	var t0 time.Time
	for step := 0; step < warm+n; step++ {
		if step == warm {
			if between != nil {
				between()
			}
			t0 = time.Now()
		}
		if _, err := t.Exchange(ctx, step, outs); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

func microInMem(cfg runConfig, m metricSet) error {
	small, err := exchangeNS[pagerank.Wire](inmem.New[pagerank.Wire](8), links(8, 1, pagerankMsg), 2, cfg.reps(20000), nil)
	if err != nil {
		return err
	}
	bulk, err := exchangeNS[dsort.Wire](inmem.New[dsort.Wire](2), links(2, bulkEnvs, dsortMsg), 2, cfg.reps(100), nil)
	if err != nil {
		return err
	}
	m["inmem.exchange_ns_per_env_small"] = small / 56
	m["inmem.exchange_ns_per_env_bulk"] = bulk / (2 * bulkEnvs)
	return nil
}

// codecNS encodes and decodes one batch n times.
func codecNS[M any](c wire.Codec[M], envs []transport.Envelope[M], n int) (enc, dec float64, frame []byte, err error) {
	enc = perOp(n, func() {
		if err == nil {
			frame, err = wire.AppendBatchV2(frame[:0], 3, 0, 1, envs, c)
		}
	})
	if err != nil {
		return 0, 0, nil, err
	}
	var scratch []transport.Envelope[M]
	dec = perOp(n, func() {
		if err == nil {
			_, _, scratch, err = wire.DecodeBatchAnyInto(frame, c, 0, 1, scratch)
		}
	})
	per := float64(len(envs))
	return enc / per, dec / per, frame, err
}

func microWire(cfg runConfig, m metricSet) error {
	small := links(2, smallEnvs, pagerankMsg)[0]
	encS, decS, frame, err := codecNS(pagerank.WireCodec(), small, cfg.reps(20000))
	if err != nil {
		return err
	}
	bulk := links(2, bulkEnvs, dsortMsg)[0]
	encB, decB, bulkFrame, err := codecNS(dsort.WireCodec(), bulk, cfg.reps(50))
	if err != nil {
		return err
	}
	m["wire.encode_ns_per_env_small"], m["wire.decode_ns_per_env_small"] = encS, decS
	m["wire.encode_ns_per_env_bulk"], m["wire.decode_ns_per_env_bulk"] = encB, decB
	m["wire.bytes_per_env_bulk"] = float64(len(bulkFrame)) / bulkEnvs

	var pipe bytes.Buffer
	bw, br := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	var buf []byte
	m["wire.frame_rw_ns"] = perOp(cfg.reps(50000), func() {
		if err != nil {
			return
		}
		if err = wire.WriteFrame(bw, frame); err != nil {
			return
		}
		if err = bw.Flush(); err != nil {
			return
		}
		buf, err = wire.ReadFrameInto(br, buf)
	})
	return err
}

func microTCP(cfg runConfig, m metricSet) error {
	codec := pagerank.WireCodec()
	var keep *tcp.Transport[pagerank.Wire]
	connect, err := medianOf(3, func() (float64, error) {
		if keep != nil {
			keep.Close()
		}
		t0 := time.Now()
		t, err := tcp.New(8, codec)
		keep = t
		return ms(time.Since(t0)), err
	})
	if err != nil {
		return err
	}
	defer keep.Close()
	m["tcp.mesh_connect_ms"] = connect

	n := cfg.reps(2000)
	var before, after runtime.MemStats
	small, err := exchangeNS[pagerank.Wire](keep, links(8, 1, pagerankMsg), 10, n, func() { runtime.ReadMemStats(&before) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m["tcp.exchange_us_small"] = small / 1e3
	m["tcp.allocs_per_exchange"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	big, err := tcp.New(2, dsort.WireCodec())
	if err != nil {
		return err
	}
	defer big.Close()
	n = cfg.reps(100)
	var sentBefore int64
	bulk, err := exchangeNS[dsort.Wire](big, links(2, bulkEnvs, dsortMsg), 2, n, func() { sentBefore = big.WireStats().BytesSent })
	if err != nil {
		return err
	}
	bytesPer := float64(big.WireStats().BytesSent-sentBefore) / float64(n)
	m["tcp.exchange_mb_per_s_bulk"] = bytesPer / 1e6 / (bulk / 1e9)
	return nil
}

func microNode(cfg runConfig, m metricSet) error {
	type closer interface{ Close() error }
	build := func(mk func() (closer, error)) (float64, error) {
		return medianOf(3, func() (float64, error) {
			t0 := time.Now()
			c, err := mk()
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			return ms(d), c.Close()
		})
	}
	var err error
	if m["node.mesh_build_ms"], err = build(func() (closer, error) { return node.NewLocalMesh(8) }); err != nil {
		return err
	}
	if m["jobs.mesh_build_ms"], err = build(func() (closer, error) { return jobs.NewMeshBackend(8) }); err != nil {
		return err
	}

	// A registered-algorithm-shaped no-op through the same driver entry
	// the node workloads use; mesh build and teardown are timed apart
	// by running it at two lengths and taking the slope.
	run := func(steps int) (time.Duration, error) {
		a := algo.Algorithm[struct{}, struct{}, struct{}]{
			Name: "idle", Codec: nothing{},
			NewMachine: func(partition.View) (algo.Machine[struct{}, struct{}], error) { return &idle{left: steps}, nil },
			Merge:      func([]struct{}) struct{} { return struct{}{} },
		}
		t0 := time.Now()
		_, _, err := algo.NodeRunLocal(a, algo.EdgelessInput(algo.Problem{N: 8, K: 8}), node.Config{K: 8, Bandwidth: 1, DropPerSuperstep: true})
		return time.Since(t0), err
	}
	short, long := cfg.reps(500), cfg.reps(2500)+1
	dShort, err := run(short)
	if err != nil {
		return err
	}
	dLong, err := run(long)
	if err != nil {
		return err
	}
	m["node.superstep_floor_ns"] = float64(dLong-dShort) / float64(long-short)
	return nil
}

// timedSink wraps a checkpoint sink and times every Put: the one place
// the checkpoint layer takes a caller-supplied hook.
type timedSink struct {
	core.CheckpointSink
	putMS []float64
	bytes int64
}

func (s *timedSink) Put(step int, blob []byte) error {
	t0 := time.Now()
	err := s.CheckpointSink.Put(step, blob)
	s.putMS = append(s.putMS, ms(time.Since(t0)))
	s.bytes += int64(len(blob))
	return err
}

// microCheckpoint runs the checkpoint workload's problem once over
// inmem with a timed FileSink. The node runtime's own Put cannot be
// reached from outside; this prices the shared file path.
func microCheckpoint(cfg runConfig, prob algo.Problem, m metricSet) error {
	w := cfg.Workload
	if !w.Ckpt {
		return nil
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "sink-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sink := &timedSink{CheckpointSink: core.NewFileSink(dir)}
	prob.Checkpoint = algo.CheckpointSpec{Every: 1, Sink: sink}
	e, _ := algo.Lookup(w.Algo)
	if _, err := e.Run(prob, transport.InMem); err != nil {
		return err
	}
	if len(sink.putMS) > 0 {
		m["checkpoint.file_put_ms_p50"] = median(sink.putMS)
		m["checkpoint.bytes_per_ckpt"] = float64(sink.bytes) / float64(len(sink.putMS))
	}
	return nil
}

func microObs(cfg runConfig, m metricSet) error {
	tr := obs.NewTrace(1<<12, 8)
	s := obs.Span{Dur: 100, Machine: 1, Peer: 2, Phase: obs.PhaseFrameWrite, Bytes: 512}
	m["obs.record_ns"] = perOp(cfg.reps(1000000), func() {
		s.Start++
		tr.Record(s)
	})
	return nil
}

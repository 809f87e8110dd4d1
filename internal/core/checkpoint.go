package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// This file is the checkpoint/recovery subsystem (ROADMAP item 5): a
// run that loses a machine finishes anyway, with bit-identical output.
//
// The design leans entirely on determinism the repo already guarantees.
// Machine state is a pure function of (seed, inbox history), so a
// checkpoint of all k machines taken at one observation barrier — state
// blobs via each algorithm's Snapshotter, RNG state words, done flags,
// and the superstep's validated outgoing envelopes, eagerly emitted
// batches included — is a complete, consistent cut of the computation.
// Recovery reopens a fresh transport, restores every machine in place
// from the latest cut, and re-ships that superstep's envelopes through
// Begin and Finish; from there the replay is the
// original run, bit for bit, because every machine draws the same
// random words and reads the same inboxes.
//
// Placement of the cut. The engine captures a checkpoint after the
// superstep's accounting and before its Finish. The checkpointed Stats
// therefore already include the captured superstep, and a resumed run
// re-enters the loop at the Finish of that superstep without
// re-accounting it. Batches a machine already emitted are still held by
// its Emitter at that point and are written with its pending outs; the
// restore hands everything to Finish as rest, which assembles the same
// inboxes because a sender never mixes an emitted batch and rest
// envelopes for one peer. Quiescence returns before accounting, so a
// final superstep is never captured — a checkpoint always names a
// superstep whose Finish is (re)tryable. An additional arm-time image at
// superstep -1 (fresh state, empty outs, zero stats) covers failures
// that land before the first periodic capture: restoring it is an exact
// restart-from-zero.
//
// What is recoverable: errors that unwrap to *transport.MachineError
// while the run context is still live — the attributed peer-loss class
// chaos injects and real socket failures produce. Panics, context
// cancellation, MaxSupersteps, and validation errors stay fail-fast.

// Snapshotter is the per-machine state codec capability. Machines that
// implement it (all five registry algorithms do, in their state.go
// files) can be checkpointed and restored mid-run.
//
// SnapshotState appends the machine's complete dynamic state to dst and
// returns the extended slice; static input (the partition view, graph
// shard, sort keys) is excluded — a restored machine is rebuilt by the
// same factory and already holds it. RestoreState overwrites every
// dynamic field from a blob SnapshotState produced, including clearing
// scratch state, so the machine's subsequent supersteps are
// bit-identical to the snapshotted original's. Implementations reuse
// the algorithm's wire codec types where state is message-shaped.
type Snapshotter interface {
	SnapshotState(dst []byte) ([]byte, error)
	RestoreState(src []byte) error
}

// DefaultMaxRecoveries bounds machine replacements per run when the
// policy doesn't set its own limit.
const DefaultMaxRecoveries = 3

// CheckpointPolicy is Config.Checkpoint: off by default (Every == 0),
// and the engine's checkpoint hook is a single nil check when off,
// preserving its zero-allocation steady state and every golden hash.
type CheckpointPolicy struct {
	// Every captures a checkpoint each s supersteps (at supersteps
	// Every-1, 2*Every-1, ...). 0 disables checkpointing.
	Every int
	// Sink stores the checkpoint blobs; nil means an in-memory ring of
	// the last two checkpoints (NewMemorySink).
	Sink CheckpointSink
	// MaxRecoveries bounds machine replacements per run; 0 means
	// DefaultMaxRecoveries.
	MaxRecoveries int
}

// CheckpointSink is pluggable checkpoint storage. Put stores the blob
// for one superstep (the sink must copy it — the encoder reuses its
// buffer); Latest returns the most recent stored checkpoint, or
// (-1, nil, nil) when the sink holds none.
type CheckpointSink interface {
	Put(superstep int, blob []byte) error
	Latest() (superstep int, blob []byte, err error)
}

// MemorySink is an in-memory checkpoint ring holding the newest retain
// checkpoints. It also counts every Put and its bytes, which is how E25
// reports bytes-per-checkpoint without touching a disk.
type MemorySink struct {
	mu      sync.Mutex
	retain  int
	entries []memCkpt
	puts    int
	bytes   int64
}

type memCkpt struct {
	step int
	blob []byte
}

// NewMemorySink returns a ring keeping the newest retain checkpoints
// (retain <= 0 means 2: the newest plus one fallback).
func NewMemorySink(retain int) *MemorySink {
	if retain <= 0 {
		retain = 2
	}
	return &MemorySink{retain: retain}
}

// Put implements CheckpointSink.
func (s *MemorySink) Put(superstep int, blob []byte) error {
	cp := append([]byte(nil), blob...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, memCkpt{step: superstep, blob: cp})
	if len(s.entries) > s.retain {
		n := copy(s.entries, s.entries[len(s.entries)-s.retain:])
		for i := n; i < len(s.entries); i++ {
			s.entries[i] = memCkpt{}
		}
		s.entries = s.entries[:n]
	}
	s.puts++
	s.bytes += int64(len(blob))
	return nil
}

// Latest implements CheckpointSink.
func (s *MemorySink) Latest() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return -1, nil, nil
	}
	e := s.entries[len(s.entries)-1]
	return e.step, e.blob, nil
}

// Puts returns how many checkpoints have been stored.
func (s *MemorySink) Puts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

// Bytes returns the total bytes across all Put calls (not just the
// retained ring).
func (s *MemorySink) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// FileSink stores checkpoints as files under a run directory, one file
// per checkpoint (ckpt-<superstep>.kmcp), written atomically via a tmp
// file and rename, pruned to the newest two. The directory is created
// on first Put.
type FileSink struct {
	dir    string
	retain int
}

// NewFileSink returns a file-backed sink rooted at dir.
func NewFileSink(dir string) *FileSink {
	return &FileSink{dir: dir, retain: 2}
}

const ckptFilePrefix, ckptFileSuffix = "ckpt-", ".kmcp"

// Put implements CheckpointSink.
func (s *FileSink) Put(superstep int, blob []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	name := fmt.Sprintf("%s%08d%s", ckptFilePrefix, superstep, ckptFileSuffix)
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return err
	}
	steps, err := s.list()
	if err != nil {
		return err
	}
	for len(steps) > s.retain {
		old := fmt.Sprintf("%s%08d%s", ckptFilePrefix, steps[0], ckptFileSuffix)
		if err := os.Remove(filepath.Join(s.dir, old)); err != nil {
			return err
		}
		steps = steps[1:]
	}
	return nil
}

// Latest implements CheckpointSink.
func (s *FileSink) Latest() (int, []byte, error) {
	steps, err := s.list()
	if err != nil || len(steps) == 0 {
		return -1, nil, err
	}
	step := steps[len(steps)-1]
	blob, err := os.ReadFile(filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", ckptFilePrefix, step, ckptFileSuffix)))
	if err != nil {
		return -1, nil, err
	}
	return step, blob, nil
}

// list returns the stored superstep numbers in ascending order.
func (s *FileSink) list() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ckptFilePrefix) || !strings.HasSuffix(name, ckptFileSuffix) {
			continue
		}
		v, err := strconv.Atoi(name[len(ckptFilePrefix) : len(name)-len(ckptFileSuffix)])
		if err != nil {
			continue
		}
		steps = append(steps, v)
	}
	sort.Ints(steps)
	return steps, nil
}

// ckRun is the per-run checkpoint state threaded through the engine
// loop when checkpointing is armed; nil keeps the loop on its fenced
// zero-allocation path.
type ckRun[M any] struct {
	every int
	sink  CheckpointSink
	codec wire.Codec[M]
	snaps []Snapshotter
	rngs  []*rng.RNG

	buf      []byte // encode scratch, reused across captures
	initBlob []byte // arm-time superstep -1 image (restart-from-zero)
	// resume >= 0 asks the next run call to re-enter at this
	// superstep's Finish with restored outs; -2 means a normal start.
	resume int
}

// Checkpoint blob format (versioned; decode rejects unknown versions):
//
//	"KMCP" ver=1
//	uvarint superstep+1          (+1 encodes the arm-time -1)
//	uvarint k
//	uvarint Rounds, Supersteps, Messages, Words
//	k × uvarint RecvWords; k × uvarint SentWords
//	uvarint len(PerSuperstep), each 6 uvarints
//	per machine: uvarint rngState; flags byte (bit0 done);
//	             uvarint len(state) + state blob;
//	             uvarint len(outs) (emitted batches, then rest), each:
//	             uvarint To, uvarint Words, codec payload
//	             (self-delimiting per wire.Codec)
//
// Stats.Recoveries is deliberately excluded: it is a live counter of
// the run, not part of the computation's cut, and survives restores.
var ckptMagic = []byte{'K', 'M', 'C', 'P', 1}

// arm validates that every machine is checkpointable and captures the
// superstep -1 image.
func (ck *ckRun[M]) arm(c *Cluster[M], e *engine[M], stats *Stats) error {
	ck.snaps = make([]Snapshotter, c.cfg.K)
	for i, m := range c.machines {
		s, ok := m.(Snapshotter)
		if !ok {
			return fmt.Errorf("core: machine %d (%T) does not implement core.Snapshotter; checkpointing needs a per-machine state codec", i, m)
		}
		ck.snaps[i] = s
	}
	blob, err := ck.encode(-1, e, stats)
	if err != nil {
		return err
	}
	ck.initBlob = append([]byte(nil), blob...)
	return nil
}

// capture encodes the cut at superstep step and stores it in the sink.
func (ck *ckRun[M]) capture(step int, e *engine[M], stats *Stats) error {
	blob, err := ck.encode(step, e, stats)
	if err != nil {
		return err
	}
	return ck.sink.Put(step, blob)
}

func (ck *ckRun[M]) encode(step int, e *engine[M], stats *Stats) ([]byte, error) {
	b := append(ck.buf[:0], ckptMagic...)
	b = wire.AppendUvarint(b, uint64(step+1))
	k := len(ck.snaps)
	b = wire.AppendUvarint(b, uint64(k))
	b = wire.AppendUvarint(b, uint64(stats.Rounds))
	b = wire.AppendUvarint(b, uint64(stats.Supersteps))
	b = wire.AppendUvarint(b, uint64(stats.Messages))
	b = wire.AppendUvarint(b, uint64(stats.Words))
	for _, w := range stats.RecvWords {
		b = wire.AppendUvarint(b, uint64(w))
	}
	for _, w := range stats.SentWords {
		b = wire.AppendUvarint(b, uint64(w))
	}
	b = wire.AppendUvarint(b, uint64(len(stats.PerSuperstep)))
	for i := range stats.PerSuperstep {
		ss := &stats.PerSuperstep[i]
		b = wire.AppendUvarint(b, uint64(ss.Rounds))
		b = wire.AppendUvarint(b, uint64(ss.Messages))
		b = wire.AppendUvarint(b, uint64(ss.Words))
		b = wire.AppendUvarint(b, uint64(ss.MaxLinkWords))
		b = wire.AppendUvarint(b, uint64(ss.MaxRecvWords))
		b = wire.AppendUvarint(b, uint64(ss.MaxSentWords))
	}
	var err error
	for i := 0; i < k; i++ {
		b = wire.AppendUvarint(b, ck.rngs[i].State())
		var flags byte
		if e.dones[i] {
			flags |= 1
		}
		b = append(b, flags)
		lenAt := len(b)
		b = wire.AppendUvarint(b, 0) // state length placeholder
		stateAt := len(b)
		if b, err = ck.snaps[i].SnapshotState(b); err != nil {
			return nil, fmt.Errorf("core: snapshot machine %d: %w", i, err)
		}
		b = spliceLen(b, lenAt, stateAt)
		em := e.emitters[i]
		b = wire.AppendUvarint(b, uint64(em.msgs)+uint64(len(e.outs[i])))
		for _, batch := range em.batches {
			if b, err = ck.appendEnvs(b, batch); err != nil {
				return nil, fmt.Errorf("core: snapshot machine %d: %w", i, err)
			}
		}
		if b, err = ck.appendEnvs(b, e.outs[i]); err != nil {
			return nil, fmt.Errorf("core: snapshot machine %d: %w", i, err)
		}
	}
	ck.buf = b
	return b, nil
}

// appendEnvs appends envs in the blob's per-envelope layout.
func (ck *ckRun[M]) appendEnvs(b []byte, envs []Envelope[M]) ([]byte, error) {
	var err error
	for j := range envs {
		env := &envs[j]
		b = wire.AppendUvarint(b, uint64(env.To))
		b = wire.AppendUvarint(b, uint64(env.Words))
		if b, err = ck.codec.Append(b, env.Msg); err != nil {
			return nil, fmt.Errorf("envelope %d for machine %d: %w", j, env.To, err)
		}
	}
	return b, nil
}

// spliceLen rewrites the uvarint length placeholder at lenAt (encoded
// as a single zero byte) to the actual length of b[stateAt:], shifting
// the tail when the real uvarint needs more than one byte.
func spliceLen(b []byte, lenAt, stateAt int) []byte {
	n := len(b) - stateAt
	var enc [10]byte
	encLen := len(wire.AppendUvarint(enc[:0], uint64(n)))
	if encLen == 1 {
		b[lenAt] = byte(n)
		return b
	}
	b = append(b, make([]byte, encLen-1)...)
	copy(b[stateAt+encLen-1:], b[stateAt:len(b)-(encLen-1)])
	wire.AppendUvarint(b[lenAt:lenAt], uint64(n))
	return b
}

// restore decodes the latest stored checkpoint (or the arm-time image
// when the sink is empty) into the machines, RNG streams, engine
// buffers, and stats, and returns the superstep the run resumes at
// (-1 for a restart-from-zero).
func (ck *ckRun[M]) restore(e *engine[M], stats *Stats) (int, error) {
	step, blob, err := ck.sink.Latest()
	if err != nil {
		return -1, fmt.Errorf("core: read latest checkpoint: %w", err)
	}
	if blob == nil {
		step, blob = -1, ck.initBlob
	}
	got, err := ck.decodeInto(blob, e, stats)
	if err != nil {
		return -1, err
	}
	if got != step {
		return -1, fmt.Errorf("core: checkpoint blob names superstep %d, sink says %d", got, step)
	}
	return step, nil
}

func (ck *ckRun[M]) decodeInto(blob []byte, e *engine[M], stats *Stats) (int, error) {
	k := len(ck.snaps)
	d := ckDecoder{src: blob}
	for _, m := range ckptMagic {
		if b, err := d.byte(); err != nil || b != m {
			return -1, fmt.Errorf("core: bad checkpoint header")
		}
	}
	step := int(d.uvarint()) - 1
	if gotK := int(d.uvarint()); gotK != k {
		return -1, fmt.Errorf("core: checkpoint for k=%d cluster, running k=%d", gotK, k)
	}
	stats.Rounds = int64(d.uvarint())
	stats.Supersteps = int(d.uvarint())
	stats.Messages = int64(d.uvarint())
	stats.Words = int64(d.uvarint())
	for i := 0; i < k; i++ {
		stats.RecvWords[i] = int64(d.uvarint())
	}
	for i := 0; i < k; i++ {
		stats.SentWords[i] = int64(d.uvarint())
	}
	stats.MaxRecvWords = 0
	nss := int(d.uvarint())
	stats.PerSuperstep = stats.PerSuperstep[:0]
	for i := 0; i < nss; i++ {
		stats.PerSuperstep = append(stats.PerSuperstep, SuperstepStat{
			Rounds:       int64(d.uvarint()),
			Messages:     int64(d.uvarint()),
			Words:        int64(d.uvarint()),
			MaxLinkWords: int64(d.uvarint()),
			MaxRecvWords: int64(d.uvarint()),
			MaxSentWords: int64(d.uvarint()),
		})
	}
	for i := 0; i < k; i++ {
		ck.rngs[i].SetState(d.uvarint())
		flags, err := d.byte()
		if err != nil {
			return -1, err
		}
		e.dones[i] = flags&1 != 0
		state, err := d.bytes(int(d.uvarint()))
		if err != nil {
			return -1, err
		}
		if err := ck.snaps[i].RestoreState(state); err != nil {
			return -1, fmt.Errorf("core: restore machine %d: %w", i, err)
		}
		nOut := int(d.uvarint())
		outs := make([]Envelope[M], 0, nOut)
		for j := 0; j < nOut; j++ {
			env := Envelope[M]{
				From:  MachineID(i),
				To:    MachineID(d.uvarint()),
				Words: int32(d.uvarint()),
			}
			m, n, err := ck.codec.Decode(d.src[d.off:])
			if err != nil {
				return -1, fmt.Errorf("core: decode checkpoint envelope (machine %d): %w", i, err)
			}
			d.off += n
			env.Msg = m
			outs = append(outs, env)
		}
		e.outs[i] = outs
		e.inboxes[i] = nil
		e.panics[i] = nil
	}
	if d.err != nil {
		return -1, fmt.Errorf("core: corrupt checkpoint: %w", d.err)
	}
	return step, nil
}

// ckDecoder is a cursor over a checkpoint blob that latches the first
// error, so the decode body reads linearly.
type ckDecoder struct {
	src []byte
	off int
	err error
}

func (d *ckDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n, err := wire.Uvarint(d.src[d.off:])
	if err != nil {
		d.err = err
		return 0
	}
	d.off += n
	return v
}

func (d *ckDecoder) byte() (byte, error) {
	if d.err == nil && d.off >= len(d.src) {
		d.err = fmt.Errorf("truncated")
	}
	if d.err != nil {
		return 0, d.err
	}
	b := d.src[d.off]
	d.off++
	return b, nil
}

func (d *ckDecoder) bytes(n int) ([]byte, error) {
	if d.err == nil && (n < 0 || d.off+n > len(d.src)) {
		d.err = fmt.Errorf("truncated")
	}
	if d.err != nil {
		return nil, d.err
	}
	b := d.src[d.off : d.off+n]
	d.off += n
	return b, nil
}

// RunCheckpointed executes the cluster over t with the configured
// checkpoint policy and in-run recovery: when the run fails with an
// attributed *transport.MachineError and the context is still live, the
// dead transport is replaced by one from reopen, every machine is
// restored in place from the latest checkpoint, and the run resumes at
// the checkpointed superstep's Finish — a deterministic replay whose
// output is bit-identical to an unkilled run. Recovery is attempted up
// to the policy's MaxRecoveries; Stats.Recoveries counts the
// replacements performed.
//
// The caller owns t (and must Close it, as with RunOn); replacement
// transports created from reopen are owned and closed here. With
// Checkpoint.Every == 0 this is exactly RunOn.
func (c *Cluster[M]) RunCheckpointed(t Transport[M], codec wire.Codec[M], reopen func() (Transport[M], error)) (*Stats, error) {
	pol := c.cfg.Checkpoint
	if pol.Every <= 0 {
		return c.RunOn(t)
	}
	if codec == nil {
		return nil, fmt.Errorf("core: checkpointing needs a message codec for state and envelope serialization")
	}
	runCtx := c.cfg.Context
	if runCtx == nil {
		runCtx = context.Background()
	}
	maxRec := pol.MaxRecoveries
	if maxRec <= 0 {
		maxRec = DefaultMaxRecoveries
	}
	sink := pol.Sink
	if sink == nil {
		sink = NewMemorySink(0)
	}

	stats := newStats(c.cfg.K)
	defer stats.finalize()
	e := c.newEngine(t)
	defer e.shutdown()

	ck := &ckRun[M]{every: pol.Every, sink: sink, codec: codec, rngs: c.rngs, resume: -2}
	if err := ck.arm(c, e, stats); err != nil {
		return stats, err
	}

	defer func() {
		if e.t != t {
			e.t.Close()
		}
	}()
	for {
		err := c.run(e, runCtx, stats, ck)
		if err == nil {
			return stats, nil
		}
		var me *transport.MachineError
		if !errors.As(err, &me) || runCtx.Err() != nil || reopen == nil || stats.Recoveries >= maxRec {
			return stats, err
		}
		step, rerr := ck.restore(e, stats)
		if rerr != nil {
			return stats, fmt.Errorf("core: recovery after %v: %w", err, rerr)
		}
		nt, oerr := reopen()
		if oerr != nil {
			return stats, fmt.Errorf("core: recovery reopen after %v: %w", err, oerr)
		}
		if e.t != t {
			e.t.Close()
		}
		e.t = nt
		stats.Recoveries++
		if step >= 0 {
			ck.resume = step
		} else {
			ck.resume = -2 // restart-from-zero: the arm-time image was restored
		}
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// This file is the checkpoint/recovery subsystem: a run that loses a
// machine finishes anyway, with bit-identical output. It holds the one
// cut, the one container format and the one sink interface that both
// runtimes — the in-process cluster here and transport/node — share.
//
// The cut. Machine state is a pure function of (seed, inbox history),
// so right after superstep s's Finish succeeds, the k parts ⟨RNG state,
// Snapshotter state, the inbox superstep s+1 consumes⟩ plus the Stats
// accounted through s are a complete, consistent image of the
// computation. A restore installs the parts into machines rebuilt by
// the same factory and re-enters the ordinary loop at s+1; from there
// the replay is the original run, bit for bit, because every machine
// draws the same random words and reads the same inboxes. Quiescence
// returns before Finish, so a final superstep is never captured, and a
// superstep whose Finish failed was never captured either: recovery
// replays at most Every supersteps. The in-process cluster also keeps
// an arm-time image at superstep -1 (fresh state, empty inboxes, zero
// Stats) for failures that land before its first capture — restoring it
// is an exact restart-from-zero.
//
// The container (all integers uvarint; len X is X length-prefixed):
//
//	checkpoint := 'K' 'M' 'C' 'K' ver=1  step+1  k  k × len part  len stats
//	part       := rngState  len state  batch
//	stats      := k  Rounds Supersteps Messages Words  k × RecvWords
//	              k × SentWords  n  n × (Rounds Messages Words
//	              MaxLinkWords MaxRecvWords MaxSentWords)
//
// step+1 encodes the arm-time -1 as 0. state is the Snapshotter blob.
// batch is the machine's next inbox as wire.AppendBatchV2 writes a
// received batch (superstep step+1, From runs seeded with 0) and runs to
// the end of the part. Stats.MaxRecvWords is derived and
// Stats.Recoveries is a live counter of the run, not part of the
// computation's cut; neither is stored. The stop verdict of the node
// runtime ships final Stats in the same stats layout.
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
// (-1, nil, nil) when the sink holds none. Puts are serialised by the
// runtimes; the k node loops of a resuming run call Latest concurrently.
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
	if over := len(s.entries) - s.retain; over > 0 {
		s.entries = slices.Delete(s.entries, 0, over)
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
// per checkpoint (ckpt-<superstep>.kmck), written atomically via a tmp
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

const ckptFilePrefix, ckptFileSuffix = "ckpt-", ".kmck"

func (s *FileSink) path(superstep int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", ckptFilePrefix, superstep, ckptFileSuffix))
}

// Put implements CheckpointSink. A run's checkpoints are strictly
// increasing, so a file at a higher superstep belongs to an earlier run
// into the same directory: left in place it would outrank this run in
// Latest and be what retention keeps, so it is removed along with
// everything older than the newest two.
func (s *FileSink) Put(superstep int, blob []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	name := s.path(superstep)
	if err := os.WriteFile(name+".tmp", blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(name+".tmp", name); err != nil {
		return err
	}
	steps, err := s.list()
	if err != nil {
		return err
	}
	ours := sort.SearchInts(steps, superstep) + 1 // files at or below superstep
	for i, step := range steps {
		if step > superstep || i < ours-s.retain {
			if err := os.Remove(s.path(step)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Latest implements CheckpointSink. A file that fails the container's
// structural check, or names another superstep than its file name — a
// torn or truncated write — is skipped in favour of the next-newest, so
// it cannot poison recovery.
func (s *FileSink) Latest() (int, []byte, error) {
	steps, err := s.list()
	if err != nil {
		return -1, nil, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		blob, err := os.ReadFile(s.path(steps[i]))
		if err != nil {
			return -1, nil, err
		}
		if got, _, _, err := DecodeCheckpoint(blob); err == nil && got == steps[i] {
			return steps[i], blob, nil
		}
	}
	return -1, nil, nil
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

var ckptMagic = []byte{'K', 'M', 'C', 'K', 1}

// AppendCheckpoint appends the container of the cut after superstep
// step: the k machine parts in machine order, then the Stats part.
func AppendCheckpoint(dst []byte, step int, parts [][]byte, stats []byte) []byte {
	dst = append(dst, ckptMagic...)
	dst = wire.AppendUvarint(dst, uint64(step+1))
	dst = wire.AppendUvarint(dst, uint64(len(parts)))
	for _, part := range parts {
		dst = wire.AppendUvarint(dst, uint64(len(part)))
		dst = append(dst, part...)
	}
	dst = wire.AppendUvarint(dst, uint64(len(stats)))
	return append(dst, stats...)
}

// DecodeCheckpoint is the container's structural check and splitter:
// the returned parts and stats alias blob. What is inside a part is
// RestoreCheckpointPart's business, what is inside stats DecodeStats's.
func DecodeCheckpoint(blob []byte) (step int, parts [][]byte, stats []byte, err error) {
	if !bytes.HasPrefix(blob, ckptMagic) {
		return 0, nil, nil, fmt.Errorf("core: bad checkpoint header")
	}
	c := wire.Cursor{Src: blob, Off: len(ckptMagic)}
	step = int(c.Uvarint()) - 1
	k := c.Uvarint() // 0 once the cursor has failed
	if k > uint64(len(blob)-c.Off) {
		// Every part costs at least its length byte.
		return 0, nil, nil, fmt.Errorf("core: checkpoint claims %d parts in %d bytes", k, len(blob)-c.Off)
	}
	parts = make([][]byte, k)
	for i := range parts {
		parts[i] = c.LenPrefixed()
	}
	stats = c.LenPrefixed()
	if err := c.Finish(); err != nil {
		return 0, nil, nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	return step, parts, stats, nil
}

// OpenCheckpoint splits the container a sink returned as the checkpoint
// of superstep step, for a k-machine cluster. A checkpoint of another
// cluster size is an error, never a silent from-zero.
func OpenCheckpoint(blob []byte, step, k int) (parts [][]byte, stats []byte, err error) {
	got, parts, stats, err := DecodeCheckpoint(blob)
	switch {
	case err != nil:
		return nil, nil, err
	case got != step:
		return nil, nil, fmt.Errorf("core: checkpoint blob names superstep %d, sink says %d", got, step)
	case len(parts) != k:
		return nil, nil, fmt.Errorf("core: checkpoint for k=%d cluster, running k=%d", len(parts), k)
	}
	return parts, stats, nil
}

// AppendCheckpointPart appends machine id's part of the cut after
// superstep step; inbox is what the machine consumes in step+1.
func AppendCheckpointPart[M any](dst []byte, step int, id MachineID, r *rng.RNG, snap Snapshotter, inbox []Envelope[M], codec wire.Codec[M]) ([]byte, error) {
	dst = wire.AppendUvarint(dst, r.State())
	mark := len(dst)
	dst, err := snap.SnapshotState(dst)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot machine %d: %w", id, err)
	}
	dst = wire.PrefixLen(dst, mark)
	if dst, err = wire.AppendBatchV2(dst, step+1, 0, id, inbox, codec); err != nil {
		return nil, fmt.Errorf("core: checkpoint inbox of machine %d: %w", id, err)
	}
	return dst, nil
}

// RestoreCheckpointPart installs machine id's part of the cut after
// superstep step into snap and r and returns the inbox superstep step+1
// consumes. Nothing is installed unless the whole part decodes.
func RestoreCheckpointPart[M any](part []byte, step int, id MachineID, r *rng.RNG, snap Snapshotter, codec wire.Codec[M]) ([]Envelope[M], error) {
	c := wire.Cursor{Src: part}
	rngState := c.Uvarint()
	state := c.LenPrefixed()
	if c.Err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint part of machine %d: %w", id, c.Err)
	}
	got, _, inbox, err := wire.DecodeBatchAnyInto(part[c.Off:], codec, 0, id, nil)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint inbox of machine %d: %w", id, err)
	}
	if got != step+1 {
		return nil, fmt.Errorf("core: checkpoint part of machine %d holds the inbox of superstep %d, want %d", id, got, step+1)
	}
	if err := snap.RestoreState(state); err != nil {
		return nil, fmt.Errorf("core: restore machine %d: %w", id, err)
	}
	r.SetState(rngState)
	return inbox, nil
}

// AppendStats appends s in the stats layout.
func AppendStats(dst []byte, s *Stats) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s.RecvWords)))
	dst = wire.AppendUvarint(dst, uint64(s.Rounds))
	dst = wire.AppendUvarint(dst, uint64(s.Supersteps))
	dst = wire.AppendUvarint(dst, uint64(s.Messages))
	dst = wire.AppendUvarint(dst, uint64(s.Words))
	for _, w := range s.RecvWords {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	for _, w := range s.SentWords {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.PerSuperstep)))
	for i := range s.PerSuperstep {
		ss := &s.PerSuperstep[i]
		dst = wire.AppendUvarint(dst, uint64(ss.Rounds))
		dst = wire.AppendUvarint(dst, uint64(ss.Messages))
		dst = wire.AppendUvarint(dst, uint64(ss.Words))
		dst = wire.AppendUvarint(dst, uint64(ss.MaxLinkWords))
		dst = wire.AppendUvarint(dst, uint64(ss.MaxRecvWords))
		dst = wire.AppendUvarint(dst, uint64(ss.MaxSentWords))
	}
	return dst
}

// DecodeStats decodes a stats layout that must span src exactly, for a
// cluster of k machines. MaxRecvWords is recomputed from the
// per-machine totals.
func DecodeStats(src []byte, k int) (*Stats, error) {
	c := wire.Cursor{Src: src}
	if got := c.Uvarint(); c.Err == nil && got != uint64(k) {
		return nil, fmt.Errorf("core: stats of a k=%d cluster, running k=%d", got, k)
	}
	s := newStats(k)
	s.Rounds = int64(c.Uvarint())
	s.Supersteps = int(c.Uvarint())
	s.Messages = int64(c.Uvarint())
	s.Words = int64(c.Uvarint())
	for i := range s.RecvWords {
		s.RecvWords[i] = int64(c.Uvarint())
	}
	for i := range s.SentWords {
		s.SentWords[i] = int64(c.Uvarint())
	}
	n := c.Uvarint() // 0 once the cursor has failed
	if n > uint64(len(src)-c.Off)/6 {
		return nil, fmt.Errorf("core: stats claim %d supersteps in %d bytes", n, len(src)-c.Off)
	}
	if n > 0 {
		s.PerSuperstep = make([]SuperstepStat, n)
	}
	for i := range s.PerSuperstep {
		s.PerSuperstep[i] = SuperstepStat{
			Rounds:       int64(c.Uvarint()),
			Messages:     int64(c.Uvarint()),
			Words:        int64(c.Uvarint()),
			MaxLinkWords: int64(c.Uvarint()),
			MaxRecvWords: int64(c.Uvarint()),
			MaxSentWords: int64(c.Uvarint()),
		}
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("core: corrupt stats: %w", err)
	}
	s.finalize()
	return s, nil
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

	parts      [][]byte // encode scratch, reused across captures
	stats, buf []byte
	initBlob   []byte // arm-time superstep -1 image (restart-from-zero)
	// captured gates restore's use of the sink: until this run has stored
	// a checkpoint, whatever the sink holds is another run's.
	captured bool
}

// arm validates that every machine is checkpointable and captures the
// superstep -1 image.
func (ck *ckRun[M]) arm(c *Cluster[M], e *engine[M], stats *Stats) error {
	ck.snaps = make([]Snapshotter, c.cfg.K)
	ck.parts = make([][]byte, c.cfg.K)
	for i, m := range c.machines {
		s, ok := m.(Snapshotter)
		if !ok {
			return fmt.Errorf("core: machine %d (%T) does not implement core.Snapshotter; checkpointing needs a per-machine state codec", i, m)
		}
		ck.snaps[i] = s
	}
	blob, err := ck.encode(-1, e.inboxes, stats)
	if err != nil {
		return err
	}
	ck.initBlob = append([]byte(nil), blob...)
	return nil
}

// capture encodes the cut after superstep step — inboxes are what
// step+1 consumes — and stores it in the sink.
func (ck *ckRun[M]) capture(step int, inboxes [][]Envelope[M], stats *Stats) error {
	blob, err := ck.encode(step, inboxes, stats)
	if err != nil {
		return err
	}
	if err := ck.sink.Put(step, blob); err != nil {
		return err
	}
	ck.captured = true
	return nil
}

func (ck *ckRun[M]) encode(step int, inboxes [][]Envelope[M], stats *Stats) ([]byte, error) {
	var err error
	for i := range ck.snaps {
		ck.parts[i], err = AppendCheckpointPart(ck.parts[i][:0], step, MachineID(i), ck.rngs[i], ck.snaps[i], inboxes[i], ck.codec)
		if err != nil {
			return nil, err
		}
	}
	ck.stats = AppendStats(ck.stats[:0], stats)
	ck.buf = AppendCheckpoint(ck.buf[:0], step, ck.parts, ck.stats)
	return ck.buf, nil
}

// restore installs the latest stored checkpoint (or the arm-time image
// when this run has stored none) into the machines, RNG streams, engine
// inboxes and stats, and returns its superstep (-1 for a
// restart-from-zero); the run re-enters the loop at the next one.
func (ck *ckRun[M]) restore(e *engine[M], stats *Stats) (int, error) {
	step, blob := -1, ck.initBlob
	if ck.captured {
		s, b, err := ck.sink.Latest()
		if err != nil {
			return -1, fmt.Errorf("core: read latest checkpoint: %w", err)
		}
		if b != nil {
			step, blob = s, b
		}
	}
	k := len(ck.snaps)
	parts, statsPart, err := OpenCheckpoint(blob, step, k)
	if err != nil {
		return -1, err
	}
	restored, err := DecodeStats(statsPart, k)
	if err != nil {
		return -1, err
	}
	e.inboxes = make([][]Envelope[M], k) // the old ones belong to the dead transport
	for i, part := range parts {
		if e.inboxes[i], err = RestoreCheckpointPart(part, step, MachineID(i), ck.rngs[i], ck.snaps[i], ck.codec); err != nil {
			return -1, err
		}
		e.panics[i] = nil
	}
	restored.Recoveries = stats.Recoveries
	*stats = *restored
	return step, nil
}

// RunCheckpointed executes the cluster over t with the configured
// checkpoint policy and in-run recovery: when the run fails with an
// attributed *transport.MachineError and the context is still live, the
// dead transport is replaced by one from reopen, every machine is
// restored in place from the latest checkpoint, and the run re-enters
// the loop at the superstep after it — a deterministic replay whose
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

	ck := &ckRun[M]{every: pol.Every, sink: sink, codec: codec, rngs: c.rngs}
	if err := ck.arm(c, e, stats); err != nil {
		return stats, err
	}

	defer func() {
		if e.t != t {
			e.t.Close()
		}
	}()
	start := 0
	for {
		err := c.run(e, runCtx, stats, ck, start)
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
		start = step + 1
	}
}

// Package core implements the k-machine model of the paper (§1.1) as an
// executable substrate.
//
// A Cluster runs k Machine implementations that are pairwise connected by
// bidirectional point-to-point links. Computation advances in supersteps:
// in each superstep every machine consumes the messages delivered to it,
// performs free local computation, and emits messages for the next
// superstep. Every machine is run by its own Drive (drive.go) — one
// goroutine per machine in a Cluster, one process per machine over
// transport/node — and the drivers meet once per superstep; machines
// share nothing and communicate only through envelopes, CSP style.
//
// Cost model. The paper charges one round per B bits crossing a link, and
// a phase that puts L bits on the most loaded link costs ceil(L/B) rounds
// (this is precisely the quantity bounded in Lemma 13 and Lemmas 12/14).
// The cluster therefore accounts a superstep at
//
//	max(1, ceil(max-link-words / Bandwidth))
//
// rounds, where message sizes are counted in words (1 word = Θ(log n)
// bits, so Bandwidth in words corresponds to the paper's B = Θ(polylog n)
// bits). Measured round totals consequently reproduce the congestion
// behaviour the theorems describe: a machine that must receive R words
// needs at least R/(k-1)/Bandwidth rounds no matter how the senders
// schedule, and a single hot link serialises.
//
// Determinism. Machine i draws randomness from its own SplitMix64 stream
// seeded by (runSeed, i), and inboxes are assembled in machine order, so
// a run is a pure function of (machines, Config).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"kmachine/internal/obs"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
)

// MachineID identifies one of the k machines.
type MachineID = transport.MachineID

// Envelope is one message in flight. Words is its size in machine words
// for bandwidth accounting; From is stamped by the cluster.
type Envelope[M any] = transport.Envelope[M]

// Machine is one of the k participants. Step consumes the envelopes
// delivered this superstep and returns the envelopes to send; done
// reports that this machine has no further work of its own (it may still
// be woken by incoming messages, and must then return done again once
// idle). The computation terminates when every machine reports done and
// no envelope is in flight.
//
// Buffer ownership: ctx and inbox are only valid for the duration of
// the Step call on every link — the driver reuses the StepContext
// across supersteps and the link recycles inbox storage (the socket
// link decodes the next inbox into this one's). A machine that needs an
// envelope beyond its Step must copy it, and the returned out slice
// must not alias the inbox (routing.Forward copies). The out slice may
// be one the machine recycles: the driver and link finish reading it
// before the next Step of the same machine begins.
type Machine[M any] interface {
	Step(ctx *StepContext, inbox []Envelope[M]) (out []Envelope[M], done bool)
}

// MachineFunc adapts a function to the Machine interface.
type MachineFunc[M any] func(ctx *StepContext, inbox []Envelope[M]) ([]Envelope[M], bool)

// Step implements Machine.
func (f MachineFunc[M]) Step(ctx *StepContext, inbox []Envelope[M]) ([]Envelope[M], bool) {
	return f(ctx, inbox)
}

// StepContext carries per-machine, per-superstep environment.
type StepContext struct {
	// Self is the executing machine's ID.
	Self MachineID
	// K is the number of machines.
	K int
	// Superstep is the zero-based superstep index.
	Superstep int
	// RNG is the machine's private random stream (paper: "each machine
	// has access to a private source of true random bits").
	RNG *rng.RNG

	// emitter is the machine's per-peer emission record (a *Emitter[M]
	// bound by Drive); nil only when a Step is driven outside a run. It
	// is reached through the generic package-level EmitBatch/EmitBuckets,
	// because StepContext itself is deliberately non-generic.
	emitter any
}

// Config is the one description of a run, on either link: the
// in-process cluster (NewCluster, RunOn) and the socket link
// (transport/node, which adds only where a process sits). Every field
// means the same on both; Transport, which picks between them, is read
// only where all k machines share a process.
type Config struct {
	// K is the number of machines (k > 2 in the paper; we accept k >= 2,
	// and k = n gives the congested clique of Corollary 1).
	K int
	// Bandwidth is the per-link capacity in words per round (the paper's
	// B, measured in Θ(log n)-bit words). Must be >= 1.
	Bandwidth int
	// Seed derives all machine random streams: machine i draws from
	// rng.NewStream(Seed, i), wherever it runs.
	Seed uint64
	// MaxSupersteps aborts runaway algorithms; 0 means Drive's default.
	MaxSupersteps int
	// DropPerSuperstep disables Stats.PerSuperstep retention. Long runs
	// execute millions of supersteps and the per-phase breakdown is the
	// only Stats component that grows with them; dropping it keeps a
	// run's memory footprint constant. All other Stats fields are
	// unaffected.
	DropPerSuperstep bool
	// Transport names the link of a run whose k machines share one
	// process; empty means the in-memory loopback. Cluster.RunOn runs
	// only that one: the algorithm driver (internal/algo) runs
	// transport.TCP as k socket links, which need the message codec.
	Transport transport.Kind
	// Context cancels the whole run: every driver observes it before and
	// after its Step and hands it to every link operation, so canceling
	// it aborts the computation with a wrapped context error instead of
	// letting it run (or hang) to completion. nil means Background.
	// Cancellation cannot interrupt a machine's local Step — the model
	// makes local computation free — only the phases around it.
	Context context.Context
	// SuperstepTimeout bounds each whole superstep, Begin through the
	// verdict — the machines' Step calls and the exchange — because the
	// wire is live while machines compute: a peer that crashes or wedges
	// mid-superstep, or a Step that outlasts the timeout, surfaces as a
	// deadline error (machine-attributed on sockets) within the timeout
	// instead of blocking the cluster forever. 0 means no per-superstep deadline;
	// the happy-path behaviour (Stats, outputs, determinism) is identical
	// with or without one.
	SuperstepTimeout time.Duration
	// Checkpoint opts the run into per-superstep checkpointing (see
	// checkpoint.go): every Checkpoint.Every supersteps a consistent cut
	// of all machine state is captured right after the superstep is
	// charged into Checkpoint.Sink, and the run starts from the sink's
	// newest cut of Checkpoint.Run, if any. Off by default (Every == 0):
	// the driver's hook is a single nil check, keeping the
	// zero-allocation steady state and every golden hash unchanged.
	// Checkpointing requires all machines to implement Snapshotter and
	// the run to be given their message codec; only the k machines of one
	// process can complete a cut.
	Checkpoint CheckpointPolicy
	// Recorder, when non-nil, receives wall-clock phase spans from the
	// run: per machine and superstep a compute span (the Step call) and
	// a barrier span (waiting for the slowest machine in-process, the
	// local ruling over sockets), plus exchange spans (one per
	// superstep in-process, one per machine over sockets) and, on the
	// socket link, per-peer frame spans. The recorder must tolerate
	// concurrent Record calls and should not allocate (obs.Trace
	// satisfies both). nil — the default — keeps the drivers on their
	// span-free path: the zero-allocation discipline and the golden
	// determinism hashes are fenced with the recorder off, and Stats are
	// identical either way (spans measure time, never model cost).
	Recorder obs.Recorder
}

// Validate rejects the runs no cluster can execute: fewer than two
// machines, or a link narrower than one word per round.
func (cfg Config) Validate() error {
	if cfg.K < 2 {
		return fmt.Errorf("core: need k >= 2 machines, got %d", cfg.K)
	}
	if cfg.Bandwidth < 1 {
		return fmt.Errorf("core: need Bandwidth >= 1 word/round, got %d", cfg.Bandwidth)
	}
	return nil
}

// Log2Words returns the machine word size for an n-vertex input under
// the 1 word = ceil(log2 n)+1 bits convention — the shared ceil-log2
// helper behind DefaultBandwidth and Bits.
func Log2Words(n int) int {
	w := 1
	for v := n; v > 1; v >>= 1 {
		w++
	}
	return w
}

// DefaultBandwidth returns the bandwidth used by the experiments for an
// n-vertex input: Θ(log n) words per round, i.e. B = Θ(log² n) bits,
// squarely in the paper's B = Θ(polylog n) regime.
func DefaultBandwidth(n int) int { return Log2Words(n) }

// SuperstepStat records one superstep's communication profile.
type SuperstepStat struct {
	// Rounds charged to this superstep: max(1, ceil(maxLink/Bandwidth)).
	Rounds int64
	// Messages and Words are totals across all links.
	Messages int64
	Words    int64
	// MaxLinkWords is the load of the most loaded directed link.
	MaxLinkWords int64
	// MaxRecvWords / MaxSentWords are the per-machine extremes.
	MaxRecvWords int64
	MaxSentWords int64
}

// Stats aggregates a run.
type Stats struct {
	// Rounds is the measured round complexity (the paper's T).
	Rounds int64
	// Supersteps is the number of barrier phases executed.
	Supersteps int
	// Messages and Words are run totals.
	Messages int64
	Words    int64
	// RecvWords[i] / SentWords[i] are per-machine totals; MaxRecvWords is
	// the maximum information (in words) any single machine received —
	// the quantity the General Lower Bound Theorem reasons about.
	RecvWords    []int64
	SentWords    []int64
	MaxRecvWords int64
	// PerSuperstep is the per-phase breakdown (Lemmas 12/14 experiments).
	PerSuperstep []SuperstepStat
	// Recoveries counts the retries internal/algo's recovery loop ran
	// before the run succeeded, each from the newest cut the run had
	// stored. It is a property of this run's execution, not of the
	// computation: a recovered run's other Stats fields and outputs are
	// bit-identical to an undisturbed run's, and checkpoints do not
	// store it.
	Recoveries int
}

// newStats returns the zeroed run statistics of a k-machine cluster.
func newStats(k int) *Stats {
	return &Stats{RecvWords: make([]int64, k), SentWords: make([]int64, k)}
}

// Bits converts a word count to bits for an n-vertex input under the
// 1 word = ceil(log2 n)+1 bits convention.
func Bits(words int64, n int) int64 {
	return words * int64(Log2Words(n))
}

// Row is one machine's account of one superstep — what the verdict is
// ruled from. Drive fills it while it validates and From-stamps the
// machine's envelopes, before any of them reaches a link, which is what
// makes the accounting independent of the substrate and of when within
// the superstep an envelope left its machine.
type Row struct {
	// Done is the machine's own done flag; Pending reports that it
	// emitted or returned at least one envelope (self-addressed included).
	Done, Pending bool
	// Messages counts its cross-machine envelopes.
	Messages int64
	// Words[j] is the words it sent to machine j (length k; the self
	// link stays 0 — local computation is free). Touched lists the
	// nonzero entries, so folding and re-zeroing a row costs O(touched
	// links), not O(k).
	Words   []int64
	Touched []int32
	// Err, when non-empty, is a Step panic or an envelope-validation
	// failure: it aborts the run on every machine.
	Err string
}

// Add charges w words to the link towards machine to.
func (r *Row) Add(to MachineID, w int64) {
	if w > 0 {
		if r.Words[to] == 0 {
			r.Touched = append(r.Touched, int32(to))
		}
		r.Words[to] += w
	}
}

// Reset empties the row for the next superstep, keeping its storage.
func (r *Row) Reset() {
	for _, j := range r.Touched {
		r.Words[j] = 0
	}
	*r = Row{Words: r.Words, Touched: r.Touched[:0]}
}

// VerdictKind is the ruling on one superstep.
type VerdictKind byte

const (
	// VerdictContinue: the superstep was charged, run the next one.
	VerdictContinue VerdictKind = iota
	// VerdictStop: every machine is done and nothing is in flight; the
	// final silent superstep is free, and Stats are the run's.
	VerdictStop
	// VerdictAbort: a machine reported an error; Abort is its message.
	VerdictAbort
)

// Verdict is what a Link's Round returns to every machine alike.
type Verdict struct {
	Kind  VerdictKind
	Stats *Stats
	Abort string
}

// Coordinator turns the k rows of each superstep into its
// SuperstepStat, the run's Stats and the verdict. It is the home of the
// paper's §1.1 cost model — max(1, ceil(max-link-words/Bandwidth))
// rounds per superstep — and both links rule through it (the
// in-process rendezvous' last arriver, every node of a socket cluster
// its own replica), which is what makes Stats bit-identical across
// substrates and across the nodes of one.
type Coordinator struct {
	bandwidth  int64
	drop       bool
	stats      *Stats
	recv, sent []int64 // per-superstep scratch, reused
}

// NewCoordinator returns the zeroed accounting of a k-machine run.
func NewCoordinator(k, bandwidth int, dropPerSuperstep bool) *Coordinator {
	return &Coordinator{bandwidth: int64(bandwidth), drop: dropPerSuperstep, stats: newStats(k),
		recv: make([]int64, k), sent: make([]int64, k)}
}

// Stats returns the statistics accounted so far, MaxRecvWords included —
// the partial Stats of a failed run, the final ones after a stop; nil
// for the nil Coordinator of a machine that does not rule.
func (c *Coordinator) Stats() *Stats {
	if c == nil {
		return nil
	}
	c.stats.finalize()
	return c.stats
}

// Rule rules the superstep from its k rows: an abort carrying the first
// reported error in machine order, a stop when every machine is done and
// none has an envelope in flight, continue otherwise. It charges nothing
// — the final silent superstep is free, and a superstep that goes on is
// charged once it is delivered.
func (c *Coordinator) Rule(rows []*Row) Verdict {
	quiet := true
	for _, r := range rows {
		if r.Err != "" {
			return Verdict{Kind: VerdictAbort, Abort: r.Err}
		}
		quiet = quiet && r.Done && !r.Pending
	}
	if quiet {
		return Verdict{Kind: VerdictStop, Stats: c.Stats()}
	}
	return Verdict{Kind: VerdictContinue}
}

// Charge accounts one delivered superstep. Sums and maxima are
// order-independent, so the SuperstepStat does not depend on how the
// rows were assembled.
func (c *Coordinator) Charge(rows []*Row) {
	var ss SuperstepStat
	clear(c.recv)
	clear(c.sent)
	for i, r := range rows {
		ss.Messages += r.Messages
		for _, j := range r.Touched {
			w := r.Words[j]
			ss.Words += w
			c.recv[j] += w
			c.sent[i] += w
			ss.MaxLinkWords = max(ss.MaxLinkWords, w)
		}
	}
	st := c.stats
	for i := range c.recv {
		ss.MaxRecvWords = max(ss.MaxRecvWords, c.recv[i])
		ss.MaxSentWords = max(ss.MaxSentWords, c.sent[i])
		st.RecvWords[i] += c.recv[i]
		st.SentWords[i] += c.sent[i]
	}
	ss.Rounds = max(1, (ss.MaxLinkWords+c.bandwidth-1)/c.bandwidth)
	st.Rounds += ss.Rounds
	st.Supersteps++
	st.Messages += ss.Messages
	st.Words += ss.Words
	if !c.drop {
		st.PerSuperstep = append(st.PerSuperstep, ss)
	}
}

// Restore replaces the accounting with the Stats part of a checkpoint.
func (c *Coordinator) Restore(part []byte) error {
	s, err := DecodeStats(part, len(c.recv))
	if err != nil {
		return err
	}
	*c.stats = *s
	return nil
}

// Cluster coordinates k machines.
type Cluster[M any] struct {
	cfg      Config
	machines []Machine[M]
	running  atomic.Pointer[rendezvous[M]] // the run in progress, for Sever
}

// ErrMaxSupersteps is returned when an algorithm fails to terminate
// within Config.MaxSupersteps barriers.
var ErrMaxSupersteps = errors.New("core: exceeded MaxSupersteps without termination")

// NewCluster builds a cluster; the factory is called once per machine.
// A cfg that fails Validate is a programmer error and panics.
func NewCluster[M any](cfg Config, factory func(id MachineID) Machine[M]) *Cluster[M] {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	c := &Cluster[M]{cfg: cfg, machines: make([]Machine[M], cfg.K)}
	for i := range c.machines {
		c.machines[i] = factory(MachineID(i))
	}
	return c
}

// K returns the number of machines.
func (c *Cluster[M]) K() int { return c.cfg.K }

// Machine returns machine i (for output collection after Run).
func (c *Cluster[M]) Machine(i MachineID) Machine[M] { return c.machines[int(i)] }

// Run executes supersteps until global quiescence (every machine done and
// no envelope in flight) and returns the communication statistics. It is
// RunOn without a message codec, so it cannot checkpoint.
func (c *Cluster[M]) Run() (*Stats, error) { return c.RunOn(nil) }

// finalize computes MaxRecvWords from the per-machine totals.
// Coordinator.Stats calls it, so a failed run's partial stats are as
// consistent as a finished run's; DecodeStats calls it on a restored
// copy.
func (s *Stats) finalize() {
	for _, w := range s.RecvWords {
		if w > s.MaxRecvWords {
			s.MaxRecvWords = w
		}
	}
}

// Partition-local input: the machinery that lets one process hold only
// its machines' Õ((n+m)/k) share of the graph, which is the k-machine
// model's own input assumption (§1.1: "the input is already partitioned
// when the computation starts"; likewise Klauck et al.'s input
// distribution). A Spec describes the RVP without materialising anything
// — homes are a pure hash — and a ShardedInput turns a source's edge
// stream into the adjacency rows of the machines a process hosts, one
// LocalView each: a CSR with no *graph.Graph behind it.

package partition

import (
	"fmt"
	"slices"

	"kmachine/internal/core"
)

// Spec is an unmaterialised random vertex partition: n vertices hashed
// onto k machines with the given seed. It carries no per-vertex state —
// every quantity below is derived from HomeOf — so any process can hold
// a Spec for any n.
type Spec struct {
	// N is the global vertex count.
	N int
	// K is the number of machines.
	K int
	// Seed drives the Home hash (the registry convention seeds it at
	// problem seed + 1, exactly like NewRVP).
	Seed uint64

	// identity homes vertex v on machine v (k = n, the congested
	// clique); only NewIdentity sets it.
	identity bool
}

// HomeOf returns the home machine of v: the one home function of the
// package. Under the RVP it is the pure hash Home, so a Spec and a
// NewRVP with equal (k, seed) agree on every vertex.
func (s Spec) HomeOf(v int32) core.MachineID {
	if s.identity {
		return core.MachineID(v)
	}
	return Home(s.Seed, v, s.K)
}

// Locals returns machine m's vertices in increasing ID order. This is
// the one O(n)-time pass sharded setup cannot avoid under a hashed RVP
// (local IDs are only enumerable by evaluating the hash), but it
// allocates just the O(n/k) result.
func (s Spec) Locals(m core.MachineID) []int32 {
	return s.localsOf([]core.MachineID{m})[0].locals
}

// rows is a shard's locals, in increasing ID order, and the bucket index
// that finds a local's row (its position in locals): the rows of the
// vertices in [b·width, (b+1)·width) run from first[b] to first[b+1].
// With width = N/|locals| + 1 a bucket holds about one local, and the
// index has at most |locals|+1 entries, so the shard stays O(n/k).
type rows struct {
	locals []int32
	first  []int32
	width  uint32
}

// row returns the row of u, or -1 when u is not one of the locals
// (negative and out-of-range IDs included).
func (x *rows) row(u int32) int32 {
	b := int(uint32(u) / x.width)
	if b+1 >= len(x.first) {
		return -1
	}
	r, end := x.first[b], x.first[b+1]
	for r < end && x.locals[r] < u {
		r++
	}
	if r == end || x.locals[r] != u {
		return -1
	}
	return r
}

// localsOf returns the rows of the given machines (distinct IDs), in
// that order, from one sweep of the ID space per pass: count, then fill,
// so every shard's locals and index share one allocation of exact size.
func (s Spec) localsOf(machines []core.MachineID) []rows {
	slot := make([]int32, s.K) // machine -> position in the result, -1 when not asked for
	for m := range slot {
		slot[m] = -1
	}
	for i, m := range machines {
		if int(m) < 0 || int(m) >= s.K {
			panic(fmt.Sprintf("partition: machine %d out of [0,%d)", m, s.K))
		}
		if slot[m] >= 0 {
			panic(fmt.Sprintf("partition: machine %d listed twice", m))
		}
		slot[m] = int32(i)
	}
	counts := make([]int, len(machines))
	for v := 0; v < s.N; v++ {
		if i := slot[s.HomeOf(int32(v))]; i >= 0 {
			counts[i]++
		}
	}
	out := make([]rows, len(machines))
	for i, c := range counts {
		width := s.N/max(c, 1) + 1
		buf := make([]int32, c+s.N/width+2) // the locals, then their index
		out[i] = rows{locals: buf[:0:c], first: buf[c:], width: uint32(width)}
	}
	for v := 0; v < s.N; v++ {
		if i := slot[s.HomeOf(int32(v))]; i >= 0 {
			out[i].locals = append(out[i].locals, int32(v))
			out[i].first[uint32(v)/out[i].width+1]++
		}
	}
	for _, x := range out {
		for b := 1; b < len(x.first); b++ {
			x.first[b] += x.first[b-1]
		}
	}
	return out
}

// AllMachines returns the IDs 0..k-1: the hosted set of a process that
// runs the whole cluster.
func AllMachines(k int) []core.MachineID {
	all := make([]core.MachineID, k)
	for m := range all {
		all[m] = core.MachineID(m)
	}
	return all
}

// localBuilder builds the shards of the machines one process hosts —
// all k for the in-process substrates, one for a kmnode -id process —
// from the source's edge stream: every edge is routed by the public hash
// to the hosted shard(s) owning an endpoint, exactly as a file splitter
// would, and edges between two machines hosted elsewhere are dropped.
// Only ShardedInput.MachineViews drives one.
//
// A shard's CSR is built by count, prefix-sum, fill. There is no
// global-ID-to-row index and no sort over the arcs: the hash names the
// shard, the tail's row is a cursor (canonical streams arrive in row
// order), and the head's row comes from the shard's bucket index
// (rows). A stream is run once per pass, or once in all with the hosted
// edges held until the fill (see fill).
type localBuilder struct {
	spec     Spec
	directed bool
	shards   []shardBuilder
	byHome   []*shardBuilder // machine -> hosted shard, nil when hosted elsewhere
	filling  bool
	held     [][2]int32 // once only: the hosted edges, count pass to fill pass
	spooling bool

	// The tail of the previous edge: a row's edges arrive together, so
	// its shard and row are looked up once per row, not once per edge.
	tailID  int32
	tail    *shardBuilder
	tailRow int32
}

// shardBuilder is one hosted machine's shard under construction.
type shardBuilder struct {
	rows
	self   core.MachineID
	out    csr
	in     csr // directed only
	cursor int // row of the last tail looked up
}

// csr is one adjacency direction of a shard. While counting, offs[r+1]
// is row r's arc count; while filling, offs[r] is row r's write
// position, which leaves it at the row's end.
type csr struct {
	offs []int32
	tgts []int32
}

func (c *csr) add(row, nbr int32, filling bool) {
	if !filling {
		c.offs[row+1]++
		return
	}
	c.tgts[c.offs[row]] = nbr
	c.offs[row]++
}

// startFill turns the counts into row starts and allocates the targets.
func (c *csr) startFill() {
	for r := 1; r < len(c.offs); r++ {
		c.offs[r] += c.offs[r-1]
	}
	c.tgts = make([]int32, c.offs[len(c.offs)-1])
}

// finish restores offs to row starts (the fill left row ends) and makes
// every row strictly increasing. Rows of a canonical generator stream
// already are; a row that arrived out of order or with repeats (edge
// lists) is sorted and deduped on its own, and the rows after it close
// the gap.
func (c *csr) finish() {
	var start, w int32
	for r := 0; r < len(c.offs)-1; r++ {
		end := c.offs[r]
		row := c.tgts[start:end]
		if !strictlyIncreasing(row) {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		c.offs[r] = w
		if w != start {
			copy(c.tgts[w:], row)
		}
		w += int32(len(row))
		start = end
	}
	c.offs[len(c.offs)-1] = w
	if int(w) < len(c.tgts) {
		c.tgts = append(make([]int32, 0, w), c.tgts[:w]...)
	}
}

func strictlyIncreasing(row []int32) bool {
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			return false
		}
	}
	return true
}

// newLocalBuilder returns a builder for the shards of the hosted
// machines (distinct IDs; build returns the views in the same order)
// under the given partition spec.
func newLocalBuilder(spec Spec, hosted []core.MachineID, directed bool) *localBuilder {
	if spec.N < 0 || spec.K < 1 {
		panic(fmt.Sprintf("partition: bad shard spec n=%d k=%d", spec.N, spec.K))
	}
	b := &localBuilder{spec: spec, directed: directed, tailID: -1,
		shards: make([]shardBuilder, len(hosted)), byHome: make([]*shardBuilder, spec.K)}
	for i, x := range spec.localsOf(hosted) {
		sh := &b.shards[i]
		sh.self, sh.rows = hosted[i], x
		sh.out.offs = make([]int32, len(x.locals)+1)
		if directed {
			sh.in.offs = make([]int32, len(x.locals)+1)
		}
		b.byHome[hosted[i]] = sh
	}
	return b
}

// fill runs the stream through the builder. A replayed stream is run
// twice, once to count and once to fill, and nothing per arc is held in
// between: the per-row generators, whose stream costs less than holding
// it. A stream run once (a file, or a generator that sorts or carries
// global state) holds the edges with a hosted endpoint from the count to
// the fill and drops all others as they stream past. A stream that
// fails is not run again.
func (b *localBuilder) fill(stream func(emit func(u, v int32)) error, once bool) error {
	emit := b.route
	b.spooling = once
	if err := stream(emit); err != nil {
		return err
	}
	b.spooling = false
	b.startFill()
	if !once {
		return stream(emit)
	}
	for _, e := range b.held {
		b.route(e[0], e[1])
	}
	b.held = nil
	return nil
}

func (b *localBuilder) startFill() {
	for i := range b.shards {
		b.shards[i].out.startFill()
		if b.directed {
			b.shards[i].in.startFill()
		}
	}
	b.filling = true
}

// route sends one streamed arc u->v (the edge {u,v}, if undirected)
// to the hosted shards: v joins u's out-row where u is hosted; u joins
// v's in-row (out-row, if undirected) where v is hosted — the home
// machine knows both directions of its vertices' incident edges, §1.1.
// Self-loops are ignored (matching graph.Builder), out-of-range
// endpoints panic.
func (b *localBuilder) route(u, v int32) {
	if u < 0 || int(u) >= b.spec.N || v < 0 || int(v) >= b.spec.N {
		panic(fmt.Sprintf("partition: shard edge (%d,%d) out of range [0,%d)", u, v, b.spec.N))
	}
	if u == v {
		return
	}
	if u != b.tailID {
		b.tailID, b.tail = u, b.byHome[b.spec.HomeOf(u)]
		if b.tail != nil {
			b.tailRow = b.tail.tailRow(u)
		}
	}
	head := b.byHome[b.spec.HomeOf(v)]
	if b.tail == nil && head == nil {
		return
	}
	if b.spooling {
		b.held = append(b.held, [2]int32{u, v})
	}
	if b.tail != nil {
		b.tail.out.add(b.tailRow, v, b.filling)
	}
	if head != nil {
		r := head.row(v)
		if b.directed {
			head.in.add(r, u, b.filling)
		} else {
			head.out.add(r, u, b.filling)
		}
	}
}

// tailRow returns the row of local vertex u. Row-ordered streams ask for
// the cursor's row or the one after it; anything else (spooled streams,
// edge lists) goes through the index.
func (sh *shardBuilder) tailRow(u int32) int32 {
	if c := sh.cursor + 1; c < len(sh.locals) && sh.locals[c] == u {
		sh.cursor = c
	} else if sh.locals[sh.cursor] != u {
		sh.cursor = int(sh.row(u))
	}
	return int32(sh.cursor)
}

// build finalises the shards, in the order the machines were given.
// Only the O(local rows + local arcs) CSRs are retained.
func (b *localBuilder) build() []*LocalView {
	if !b.filling { // no stream: an edgeless shard is just its locals
		b.startFill()
	}
	views := make([]*LocalView, len(b.shards))
	for i := range b.shards {
		sh := &b.shards[i]
		lv := &LocalView{spec: b.spec, self: sh.self, directed: b.directed, rows: sh.rows}
		sh.out.finish()
		lv.outOffs, lv.outTgts = sh.out.offs, sh.out.tgts
		if b.directed {
			sh.in.finish()
			lv.inOffs, lv.inTgts = sh.in.offs, sh.in.tgts
		}
		views[i] = lv
	}
	return views
}

// LocalView is the View: a per-machine CSR of the machine's own
// adjacency rows, with no global graph object behind it. Setup memory
// is O((n+m)/k) per machine, which is what lets a k-process run hold
// inputs no single process could. The partition tests check every
// accessor against the *graph.Graph the shard was built from.
type LocalView struct {
	rows
	spec     Spec
	self     core.MachineID
	directed bool
	outOffs  []int32
	outTgts  []int32
	inOffs   []int32
	inTgts   []int32
}

// Self returns the owning machine.
func (v *LocalView) Self() core.MachineID { return v.self }

// K returns the number of machines.
func (v *LocalView) K() int { return v.spec.K }

// N returns the global vertex count (public knowledge in the model).
func (v *LocalView) N() int { return v.spec.N }

// Locals returns this machine's vertices in increasing ID order.
func (v *LocalView) Locals() []int32 { return v.locals }

// IsLocal reports whether u is homed here. Membership is the public
// home function: O(1), no memory, and false for any ID outside [0, N).
func (v *LocalView) IsLocal(u int32) bool {
	return u >= 0 && int(u) < v.spec.N && v.HomeOf(u) == v.self
}

// HomeOf returns the home machine of any vertex: the home function is
// public, so no per-vertex state is needed.
func (v *LocalView) HomeOf(u int32) core.MachineID { return v.spec.HomeOf(u) }

// OutAdj returns the out-neighbours (or neighbours, if undirected) of a
// LOCAL vertex, sorted. The slice aliases the shard's CSR.
func (v *LocalView) OutAdj(u int32) []int32 {
	r := v.mustLocal(u, "OutAdj")
	return v.outTgts[v.outOffs[r]:v.outOffs[r+1]]
}

// InAdj returns the in-neighbours of a LOCAL vertex.
func (v *LocalView) InAdj(u int32) []int32 {
	r := v.mustLocal(u, "InAdj")
	if !v.directed {
		return v.outTgts[v.outOffs[r]:v.outOffs[r+1]]
	}
	return v.inTgts[v.inOffs[r]:v.inOffs[r+1]]
}

// Degree returns the out-degree of a LOCAL vertex.
func (v *LocalView) Degree(u int32) int {
	r := v.mustLocal(u, "Degree")
	return int(v.outOffs[r+1] - v.outOffs[r])
}

// LocalArcs returns the number of stored adjacency entries — the shard's
// actual size, against the full graph's 2m (undirected) or m+m (directed
// CSR + reverse) entries.
func (v *LocalView) LocalArcs() int { return len(v.outTgts) + len(v.inTgts) }

// Row returns the row of a LOCAL vertex: its position in Locals(), the
// index of a machine's row-indexed state.
func (v *LocalView) Row(u int32) int32 { return v.mustLocal(u, "Row") }

// mustLocal returns u's row from the bucket index, and panics when u is
// not homed here.
func (v *LocalView) mustLocal(u int32, op string) int32 {
	r := v.row(u)
	if r < 0 {
		panic(fmt.Sprintf("partition: machine %d illegally accessed %s(%d), homed at %d",
			v.self, op, u, v.HomeOf(u)))
	}
	return r
}

// ShardedInput is the Input, and the one path from an edge stream to
// shards: MachineViews runs the source's Stream through one builder for
// the machines a process hosts, so a process hosting one machine
// (cmd/kmnode -id) materialises only that machine's rows, and one
// hosting all k runs the stream no more often and never holds a global
// graph object. A generator, an edge-list file and a caller's graph
// (VertexPartition) are each a stream.
type ShardedInput struct {
	// Spec is the partition every shard is built under.
	Spec Spec
	// Directed makes a streamed pair (u,v) the arc u->v, not the edge.
	Directed bool
	// Once runs the stream once per MachineViews call, not twice (see
	// localBuilder.fill); a stream run twice must repeat itself.
	Once bool
	// Stream emits the source's edges; nil is the edgeless input.
	Stream func(emit func(u, v int32)) error
}

// NumMachines implements Input.
func (in *ShardedInput) NumMachines() int { return in.Spec.K }

// MachineView implements Input: MachineViews for a set of one.
func (in *ShardedInput) MachineView(m core.MachineID) (View, error) {
	views, err := in.MachineViews([]core.MachineID{m})
	if err != nil {
		return nil, err
	}
	return views[0], nil
}

// View is MachineView for a stream that cannot fail — a generator's,
// a graph's; it panics on a stream error.
func (in *ShardedInput) View(m core.MachineID) *LocalView {
	v, err := in.MachineView(m)
	if err != nil {
		panic(err)
	}
	return v
}

// MachineViews implements Input: one builder for the whole hosted set,
// fed by two runs of the stream, or one if Once is set. A stream error
// names the hosted set.
func (in *ShardedInput) MachineViews(hosted []core.MachineID) ([]View, error) {
	b := newLocalBuilder(in.Spec, hosted, in.Directed)
	if in.Stream != nil {
		if err := b.fill(in.Stream, in.Once); err != nil {
			return nil, fmt.Errorf("partition: shards %v: %w", hosted, err)
		}
	}
	return b.build(), nil
}

package obs

import (
	"sort"
	"sync"
)

// DefaultTraceSpans is the ring capacity NewTrace uses when the caller
// passes capacity <= 0: 1<<17 spans ≈ 5 MiB, enough for several
// thousand supersteps of a k=8 socket run before the ring wraps.
const DefaultTraceSpans = 1 << 17

// PeerCounters is one peer's share of the wire traffic observed through
// frame spans: frames and on-wire bytes shipped to (Sent) and received
// from (Recv) that peer, summed over every endpoint recording into the
// trace.
type PeerCounters struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
}

// Counters is a consistent snapshot of a Trace's gauges — the live
// numbers the kmnode debug plane publishes as expvars.
type Counters struct {
	// Total is the number of Record calls; Dropped how many of them
	// fell off the ring (Total - retained).
	Total, Dropped int64
	// CurrentSuperstep is the highest superstep any span carried, -1
	// before the first span: the "where is the run now" gauge.
	CurrentSuperstep int64
	// SuperstepsStarted is CurrentSuperstep+1 — supersteps the engine
	// has entered (the last one may still be in flight).
	SuperstepsStarted int64
	// PhaseCount / PhaseNs total the span count and duration per phase,
	// indexed by Phase.
	PhaseCount, PhaseNs [NumPhases]int64
	// FramesSent/BytesSent total the frame-write spans' frames and
	// on-wire bytes; FramesRecv/BytesRecv the frame-read spans'. They
	// cover the data plane only (control frames are not span-recorded);
	// transport.WireStats remains the physical-layer total.
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	// PerPeer breaks the frame counters down by peer machine ID; nil
	// when the trace was built without a cluster size.
	PerPeer []PeerCounters
}

// Trace is the Recorder used by the CLIs and the benchmark: a fixed-size
// span ring plus live gauges. All storage is allocated at construction;
// Record copies the span into the ring and bumps plain counters under a
// mutex, so steady-state recording performs zero allocations. When the
// ring is full the oldest spans are overwritten (Dropped counts them) —
// a bounded trace of a long run keeps its tail, which is the part a
// post-mortem wants.
type Trace struct {
	mu sync.Mutex

	spans []Span // ring storage, len = capacity
	total int64  // Record calls ever; ring cursor = total % len(spans)

	cur                    int64 // highest superstep seen; -1 before first span
	phaseCount             [NumPhases]int64
	phaseNs                [NumPhases]int64
	perPeer                []PeerCounters // nil when k unknown
	framesSent, framesRecv int64
	bytesSent, bytesRecv   int64
}

// NewTrace returns a Trace with room for capacity spans (<= 0 selects
// DefaultTraceSpans). k, when positive, sizes the per-peer wire
// counters; pass 0 if the cluster size is unknown or per-peer
// breakdowns are not needed.
func NewTrace(capacity, k int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	t := &Trace{spans: make([]Span, capacity), cur: -1}
	if k > 0 {
		t.perPeer = make([]PeerCounters, k)
	}
	return t
}

// Record implements Recorder. It is safe for concurrent use and
// allocation-free.
func (t *Trace) Record(s Span) {
	t.mu.Lock()
	t.spans[t.total%int64(len(t.spans))] = s
	t.total++
	if int64(s.Superstep) > t.cur {
		t.cur = int64(s.Superstep)
	}
	if int(s.Phase) < NumPhases {
		t.phaseCount[s.Phase]++
		t.phaseNs[s.Phase] += s.Dur
	}
	switch s.Phase {
	case PhaseFrameWrite:
		t.framesSent++
		t.bytesSent += int64(s.Bytes)
		if p := int(s.Peer); p >= 0 && p < len(t.perPeer) {
			t.perPeer[p].FramesSent++
			t.perPeer[p].BytesSent += int64(s.Bytes)
		}
	case PhaseFrameRead:
		t.framesRecv++
		t.bytesRecv += int64(s.Bytes)
		if p := int(s.Peer); p >= 0 && p < len(t.perPeer) {
			t.perPeer[p].FramesRecv++
			t.perPeer[p].BytesRecv += int64(s.Bytes)
		}
	}
	t.mu.Unlock()
}

// Spans returns a chronologically sorted copy of the retained spans.
// Safe to call while recording continues (the debug plane does), though
// a concurrent snapshot naturally sees a point-in-time prefix.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	n := t.total
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	out := make([]Span, n)
	if t.total <= int64(len(t.spans)) {
		copy(out, t.spans[:n])
	} else {
		// Ring has wrapped: oldest retained span sits at the cursor.
		at := t.total % int64(len(t.spans))
		copy(out, t.spans[at:])
		copy(out[int64(len(t.spans))-at:], t.spans[:at])
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Reset returns the trace to its just-constructed state — empty ring,
// zeroed gauges, per-peer lanes retained. The resident daemon calls it
// between jobs so the debug plane's kmachine.* expvars describe the
// live job instead of accumulating across the process lifetime (the
// single-run CLIs never need it). Callers must not Reset while a job
// is recording; between jobs the recorder is quiescent by construction.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.total = 0
	t.cur = -1
	t.phaseCount = [NumPhases]int64{}
	t.phaseNs = [NumPhases]int64{}
	for i := range t.perPeer {
		t.perPeer[i] = PeerCounters{}
	}
	t.framesSent, t.framesRecv = 0, 0
	t.bytesSent, t.bytesRecv = 0, 0
	t.mu.Unlock()
}

// Counters returns a consistent snapshot of the live gauges.
func (t *Trace) Counters() Counters {
	t.mu.Lock()
	c := Counters{
		Total:            t.total,
		CurrentSuperstep: t.cur,
		PhaseCount:       t.phaseCount,
		PhaseNs:          t.phaseNs,
		FramesSent:       t.framesSent,
		FramesRecv:       t.framesRecv,
		BytesSent:        t.bytesSent,
		BytesRecv:        t.bytesRecv,
	}
	if t.total > int64(len(t.spans)) {
		c.Dropped = t.total - int64(len(t.spans))
	}
	c.SuperstepsStarted = t.cur + 1
	if t.perPeer != nil {
		c.PerPeer = append([]PeerCounters(nil), t.perPeer...)
	}
	t.mu.Unlock()
	return c
}

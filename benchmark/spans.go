package main

import (
	"sort"

	"kmachine/internal/obs"
)

// span is one interval the benchmark records around a call into a
// layer: a name, its start and end on the obs clock (so it lines up
// with the engine spans the program records itself), the span that
// caused it, and the iteration all spans of one run share.
type span struct {
	Name       string
	Start, End int64
	Parent     int // index into spanLog.spans; -1 for a root
	Iter       int
}

// spanLog keeps the spans of a traced pass in memory; they are only
// summarised when the pass ends.
type spanLog struct{ spans []span }

// add files a finished span and returns its index.
func (l *spanLog) add(s span) int {
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// begin opens a span now and returns its index; end closes it.
func (l *spanLog) begin(name string, parent, iter int) int {
	return l.add(span{Name: name, Start: obs.Now(), Parent: parent, Iter: iter})
}

func (l *spanLog) end(i int) { l.spans[i].End = obs.Now() }

// adopt files the program's own engine spans (compute, barrier,
// exchange — frame spans nest inside exchange and would double-count)
// as children of the runner span that produced them.
func (l *spanLog) adopt(parent int, engine []obs.Span) {
	iter := l.spans[parent].Iter
	for _, s := range engine {
		if s.Phase > obs.PhaseExchange {
			continue
		}
		l.add(span{Name: s.Phase.String(), Start: s.Start, End: s.End(), Parent: parent, Iter: iter})
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Children may overlap each other
// (k machines compute at once) and are clipped to the parent, so the
// covered part is the length of their union, never their sum.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - unionLen(kids[i])
	}
	return self
}

// unionLen is the total length of the union of the intervals.
func unionLen(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	lo, hi := ivs[0][0], ivs[0][1]
	for _, v := range ivs[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// phaseUnion is the wall clock during which at least one span of the
// phase was open — what the phase costs the result, as opposed to the
// sum over machines, which exceeds wall as soon as k > cores.
func phaseUnion(engine []obs.Span, p obs.Phase) int64 {
	var ivs [][2]int64
	for _, s := range engine {
		if s.Phase == p {
			ivs = append(ivs, [2]int64{s.Start, s.End()})
		}
	}
	return unionLen(ivs)
}

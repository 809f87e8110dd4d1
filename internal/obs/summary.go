package obs

import "sort"

// PhaseAgg aggregates the spans of one phase: how many there were and
// the p50/max/total of their durations.
type PhaseAgg struct {
	Count   int
	P50Ns   int64
	MaxNs   int64
	TotalNs int64
}

func aggregate(durs []int64) PhaseAgg {
	a := PhaseAgg{Count: len(durs)}
	if len(durs) == 0 {
		return a
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	a.P50Ns = durs[len(durs)/2]
	a.MaxNs = durs[len(durs)-1]
	for _, d := range durs {
		a.TotalNs += d
	}
	return a
}

// SuperstepSummary condenses one superstep: compute and barrier
// aggregated across machines, exchange across its span(s) (one
// cluster-level span on the in-process engine, one per machine on the
// node runtime), and the superstep's wall-clock extent.
type SuperstepSummary struct {
	Superstep                  int
	Compute, Barrier, Exchange PhaseAgg
	// WallNs spans the earliest start to the latest end of the
	// superstep's engine-phase spans.
	WallNs int64
}

// PerSuperstep groups engine-phase spans (compute/barrier/exchange —
// frame spans are the transport's sub-detail and excluded) by superstep
// and summarises each. Supersteps are returned in ascending order.
func PerSuperstep(spans []Span) []SuperstepSummary {
	byStep := map[int32][]Span{}
	for _, s := range spans {
		if s.Phase > PhaseExchange {
			continue
		}
		byStep[s.Superstep] = append(byStep[s.Superstep], s)
	}
	steps := make([]int32, 0, len(byStep))
	for st := range byStep {
		steps = append(steps, st)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	out := make([]SuperstepSummary, 0, len(steps))
	for _, st := range steps {
		ss := SuperstepSummary{Superstep: int(st)}
		var durs [3][]int64
		first, last := int64(1<<62), int64(0)
		for _, s := range byStep[st] {
			durs[s.Phase] = append(durs[s.Phase], s.Dur)
			if s.Start < first {
				first = s.Start
			}
			if s.End() > last {
				last = s.End()
			}
		}
		ss.Compute = aggregate(durs[PhaseCompute])
		ss.Barrier = aggregate(durs[PhaseBarrier])
		ss.Exchange = aggregate(durs[PhaseExchange])
		ss.WallNs = last - first
		out = append(out, ss)
	}
	return out
}

// RunSummary condenses a whole run's trace.
type RunSummary struct {
	// Supersteps is the number of distinct supersteps with spans.
	Supersteps int
	// WallNs spans the earliest start to the latest end over all
	// engine-phase spans.
	WallNs int64
	// Compute/Barrier/Exchange aggregate every span of that phase
	// across all machines and supersteps.
	Compute, Barrier, Exchange PhaseAgg
	// CoveredNs is the length of the union of all engine-phase span
	// intervals, and Coverage its share of WallNs — "how much of the
	// measured wall-clock do the recorded phases explain". The
	// acceptance bar for the instrumentation is Coverage >= 0.95 on a
	// socket run.
	CoveredNs int64
	Coverage  float64
}

// Summarize computes a RunSummary over the trace's engine-phase spans
// (compute/barrier/exchange; frame spans nest inside exchange and are
// excluded so they don't double-count).
func Summarize(spans []Span) RunSummary {
	var r RunSummary
	var durs [3][]int64
	var ivs [][2]int64
	steps := map[int32]bool{}
	first, last := int64(1<<62), int64(0)
	for _, s := range spans {
		if s.Phase > PhaseExchange {
			continue
		}
		durs[s.Phase] = append(durs[s.Phase], s.Dur)
		ivs = append(ivs, [2]int64{s.Start, s.End()})
		steps[s.Superstep] = true
		if s.Start < first {
			first = s.Start
		}
		if s.End() > last {
			last = s.End()
		}
	}
	if len(ivs) == 0 {
		return r
	}
	r.Supersteps = len(steps)
	r.WallNs = last - first
	r.Compute = aggregate(durs[PhaseCompute])
	r.Barrier = aggregate(durs[PhaseBarrier])
	r.Exchange = aggregate(durs[PhaseExchange])
	for _, v := range union(ivs) {
		r.CoveredNs += v[1] - v[0]
	}
	if r.WallNs > 0 {
		r.Coverage = float64(r.CoveredNs) / float64(r.WallNs)
	}
	return r
}

// union merges the intervals in ivs (sorted in place by lo).
func union(ivs [][2]int64) (out [][2]int64) {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v[0] > cur[1] {
			out = append(out, cur)
			cur = v
			continue
		}
		if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return append(out, cur)
}

package experiments

import (
	"fmt"
	"time"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/obs"
	"kmachine/internal/transport"
)

// E21PhaseTimings decomposes wall-clock time into the three phases of
// the superstep protocol — local compute, barrier wait, and message
// exchange — using the obs trace recorder, for the two algorithms the
// paper analyses in depth (PageRank, Thm 2; triangle enumeration,
// Thm 3) on both the in-process loopback substrate and real TCP
// sockets.
//
// The point is to make the model's abstraction cost visible: §1.1
// counts ROUNDS, i.e. bandwidth-limited communication, and treats
// local computation as free. The phase breakdown shows where a real
// deployment's time actually goes — on loopback the exchange phase is
// memcpy-cheap and compute dominates; over sockets the exchange share
// grows toward the regime the model prices. The coverage column is the
// instrumentation's own audit: the share of the run's wall-clock
// explained by recorded spans (the acceptance bar is >= 0.95 on a
// socket run).
//
// When cfg.TracePath is set, the TCP PageRank run's full span timeline
// is written there as Chrome trace-event JSON.
func E21PhaseTimings(cfg Config) (Table, error) {
	t := Table{
		ID:     "E21",
		Title:  "phase timings: compute / barrier / exchange share of wall-clock, loopback vs TCP",
		Claim:  "§1.1 cost model: rounds price communication only — the exchange phase is where the substrate's cost lives",
		Header: []string{"algo", "substrate", "supersteps", "setup", "wall", "compute", "barrier", "exchange", "exch share", "exch p50/max", "coverage"},
	}
	type job struct {
		name string
		n    int
	}
	nPage, nTri := 1200, 400
	if cfg.Quick {
		nPage, nTri = 300, 150
	}
	jobs := []job{{"pagerank", nPage}, {"triangle", nTri}}
	substrates := []struct {
		label string
		kind  transport.Kind
	}{
		{"inmem", transport.InMem},
		{"tcp", transport.TCP},
	}
	const k = 8
	for _, j := range jobs {
		entry, ok := algo.Lookup(j.name)
		if !ok {
			return t, fmt.Errorf("algorithm %q not registered", j.name)
		}
		for _, sub := range substrates {
			tr := obs.NewTrace(0, k)
			prob := algo.Problem{N: j.n, K: k, Seed: cfg.Seed + 433, Recorder: tr}
			out, err := entry.Run(prob, sub.kind)
			if err != nil {
				return t, fmt.Errorf("%s/%s: %w", j.name, sub.label, err)
			}
			spans := tr.Spans()
			sum := obs.Summarize(spans)
			exchShare := 0.0
			if sum.CoveredNs > 0 {
				// Share of the covered (phase-attributed) time, so the
				// three share columns are comparable across substrates
				// even when coverage differs slightly.
				exchShare = float64(sum.Exchange.TotalNs) / float64(sum.Compute.TotalNs+sum.Barrier.TotalNs+sum.Exchange.TotalNs)
			}
			t.Rows = append(t.Rows, []string{
				j.name, sub.label, itoa(sum.Supersteps), ms(int64(out.SetupTime)),
				ms(sum.WallNs), ms(sum.Compute.TotalNs), ms(sum.Barrier.TotalNs), ms(sum.Exchange.TotalNs),
				fmt.Sprintf("%.1f%%", 100*exchShare),
				ms(sum.Exchange.P50Ns) + "/" + ms(sum.Exchange.MaxNs),
				fmt.Sprintf("%.1f%%", 100*sum.Coverage),
			})
			if sub.kind == transport.TCP {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s/tcp: exchange takes %.1f%% of phase time (%s of %s wall), spans cover %.1f%% of wall",
					j.name, 100*exchShare, ms(sum.Exchange.TotalNs), ms(sum.WallNs), 100*sum.Coverage))
			}
			if cfg.TracePath != "" && j.name == "pagerank" && sub.kind == transport.TCP {
				if err := obs.WriteChromeTraceFile(cfg.TracePath, spans); err != nil {
					return t, fmt.Errorf("write trace %s: %w", cfg.TracePath, err)
				}
				t.Notes = append(t.Notes, fmt.Sprintf(
					"Chrome trace of pagerank/tcp written to %s (%d spans)", cfg.TracePath, len(spans)))
			}
		}
	}
	t.Notes = append(t.Notes,
		"setup is the input build (generation + view construction), reported by the registry's SetupTime/ExecTime split — the O(n+m) build cost never enters the phase columns",
		"compute/barrier/exchange are per-phase totals across all machines and supersteps; wall is the trace's extent",
		"on loopback the exchange is a pointer swap and compute dominates; over TCP the exchange share grows toward the communication-bound regime the round model prices")
	return t, nil
}

// ms renders a nanosecond count as milliseconds with enough precision
// for sub-millisecond phases.
func ms(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/float64(time.Millisecond))
}

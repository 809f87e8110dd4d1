package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares the new series with the base. The change is measured
// in the metric's bad direction as a share of the base median; beyond
// the bound either way is worse or better. Inside the bound the answer
// is "unchanged" only if the run-to-run spread (IQR over the runs, as
// a share of the median) of both sides is itself inside the bound —
// otherwise the runs cannot tell, and the answer is "unresolved".
func judge(d metricDef, bound float64, base, cur *series) (verdict string, ratio float64) {
	ratio = cur.Value / base.Value
	change := (cur.Value - base.Value) / math.Abs(base.Value)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case base.Value == cur.Value:
		return unchanged, ratio
	case change > bound:
		return worse, ratio
	case change < -bound:
		return better, ratio
	}
	iqr := func(s *series) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Value) }
	if max(iqr(base), iqr(cur)) > bound {
		return unresolved, ratio
	}
	return unchanged, ratio
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per (workload, end-to-end metric), both medians
// with quartiles and sample counts, the ratio with its base, and the
// verdict. It reports whether any pair is worse. Counts that repeat
// exactly for a fixed seed are held to a bound of zero when both files
// used the same seed; across seeds their table bound applies.
func compareFiles(out io.Writer, basePath, curPath string) (anyWorse bool, err error) {
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(curPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base %s: %v\nnew  %s: %v\n", basePath, base.Header, curPath, cur.Header)
	curBy := map[string]*workloadResult{}
	for _, w := range cur.Workloads {
		curBy[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1,q3] n\tnew median [q1,q3] n\tnew/base\tbound\tverdict")
	for _, bw := range base.Workloads {
		cw := curBy[bw.Name]
		if cw == nil {
			return false, fmt.Errorf("%s has no workload %s", curPath, bw.Name)
		}
		if cw.Failed > bw.Failed {
			fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t\t0\t%s\n", bw.Name, bw.Failed, bw.Attempted, cw.Failed, cw.Attempted, worse)
			anyWorse = true
		}
		for _, d := range endToEnd {
			b, c := bw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			if b == nil || c == nil {
				return false, fmt.Errorf("workload %s lacks metric %s in one file", bw.Name, d.Name)
			}
			bound := d.Bound
			if d.Exact && base.Header.Seed == cur.Header.Seed {
				bound = 0
			}
			v, ratio := judge(d, bound, b, c)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g,%.6g] %d\t%.6g [%.6g,%.6g] %d\t%.4f of %.6g %s\t%g\t%s\n",
				bw.Name, d.Name, b.Value, b.Q1, b.Q3, b.N, c.Value, c.Q1, c.Q3, c.N, ratio, b.Value, d.Unit, bound, v)
		}
	}
	return anyWorse, tw.Flush()
}

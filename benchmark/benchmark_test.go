package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	if q1, med, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{5}); q1 != 5 || med != 5 || q3 != 5 {
		t.Errorf("a single sample is not its own quartiles: %v %v %v", q1, med, q3)
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	xs = append(xs, 200)
	if v, err := percentile(xs, 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 samples beyond it", v, err)
	}
	if v, err := percentile(xs[:100], 0.90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:20], 0.75); err == nil {
		t.Error("p75 of 20 samples has 5 beyond it and was not refused")
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "iteration", Start: 0, End: 100, Parent: -1},
		{Name: "input.build", Start: 5, End: 15, Parent: 0},
		{Name: "run", Start: 20, End: 100, Parent: 0},
		// Two machines compute at once, one child sticks out of its
		// parent, and a gap is left uncovered.
		{Name: "compute", Start: 30, End: 50, Parent: 2},
		{Name: "compute", Start: 40, End: 60, Parent: 2},
		{Name: "exchange", Start: 90, End: 120, Parent: 2},
	}
	want := []int64{
		100 - 10 - 80, // iteration: its two children do not overlap
		10,            // a leaf's self time is its duration
		80 - 30 - 10,  // run: union [30,60] plus [90,100] clipped to the parent
		20, 20, 30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestJobMixIsAFunctionOfTheSeed(t *testing.T) {
	stream := func(seed uint64) []jobSpec {
		m := newJobMix(seed, false)
		out := make([]jobSpec, 50)
		for i := range out {
			out[i] = m.slots[m.slot(i)]
		}
		return out
	}
	a, b := stream(7), stream(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different job streams")
	}
	if reflect.DeepEqual(a, stream(8)) {
		t.Error("another seed gave the same job stream")
	}
	// Every block of ten holds the mix exactly: 4 routing, 3 dsort, 2
	// triangle, 1 pagerank.
	for blk := 0; blk < 5; blk++ {
		count := map[string]int{}
		for _, j := range a[blk*10 : blk*10+10] {
			count[j.Algo]++
		}
		if want := map[string]int{"routing": 4, "dsort": 3, "triangle": 2, "pagerank": 1}; !reflect.DeepEqual(count, want) {
			t.Errorf("block %d holds %v, want %v", blk, count, want)
		}
	}
	if reflect.DeepEqual(a[:10], a[10:20]) {
		t.Error("two blocks arrived in the same order")
	}
}

// benchmarkJSON is BENCHMARK.json at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the table", i, b.Workloads[i].Name, w.Name)
		}
		if why := b.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the table", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the table", i, got, d)
		}
	}
}

// TestQuickSmoke runs all six workloads end to end at tiny sizes, both
// passes, and checks that every run is correct and that together they
// emit exactly the metric names BENCHMARK.json lists.
func TestQuickSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	// Checkpoint directories go under the working directory.
	t.Chdir(t.TempDir())
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{Workload: w, Seed: 3, Seconds: 0, Trace: trace, Quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if len(res.Problems) > 0 || res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, problems %v", w.Name, trace, res.Attempted, res.Failed, res.Problems)
			}
			defs, want := endToEnd, len(b.EndToEnd)
			if trace {
				defs, want = perLayer, len(b.PerLayer)
			}
			values, err := res.Metrics.emit(defs)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			if len(values) != want {
				t.Errorf("%s trace=%v emitted %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(values), want)
			}
			if !trace {
				for name, v := range values {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v.Value)
					}
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "run_wall_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	tight := func(v float64) *series { return &series{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	loose := func(v float64) *series { return &series{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 5} }
	for _, c := range []struct {
		name      string
		d         metricDef
		bound     float64
		base, cur *series
		want      string
	}{
		{"slower beyond the bound", lower, 0.1, tight(1), tight(1.2), worse},
		{"faster beyond the bound", lower, 0.1, tight(1), tight(0.8), better},
		{"inside the bound, tight runs", lower, 0.1, tight(1), tight(1.05), unchanged},
		{"inside the bound, spread wider than it", lower, 0.1, loose(1), tight(1.05), unresolved},
		{"throughput down is worse", higher, 0.1, tight(10), tight(8), worse},
		{"throughput up is better", higher, 0.1, tight(10), tight(12), better},
		{"an exact count that moved", lower, 0, tight(7375), tight(7376), worse},
		{"an exact count that held", lower, 0, tight(7375), tight(7375), unchanged},
	} {
		if got, _ := judge(c.d, c.bound, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

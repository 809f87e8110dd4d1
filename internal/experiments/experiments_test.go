package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode:
// each must produce a non-empty, well-formed table and print cleanly.
func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("experiment failed: %v", err)
			}
			if table.ID != r.ID {
				t.Errorf("table ID %q, want %q", table.ID, r.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(table.Header))
				}
			}
			var buf bytes.Buffer
			table.Fprint(&buf)
			if !strings.Contains(buf.String(), table.Title) {
				t.Error("printed table missing title")
			}
		})
	}
}

func TestFitExponent(t *testing.T) {
	// y = 5 x^{-2} exactly.
	xs := []float64{2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 / (x * x)
	}
	if got := fitExponent(xs, ys); math.Abs(got+2) > 1e-9 {
		t.Errorf("fitExponent = %g, want -2", got)
	}
	if !math.IsNaN(fitExponent([]float64{1}, []float64{1})) {
		t.Error("single point fit should be NaN")
	}
}

// TestE2SpeedupDirection asserts the headline ordering: on dense inputs
// the §3.2 algorithm beats the conversion baseline at every k.
func TestE2SpeedupDirection(t *testing.T) {
	table, err := E2Triangles(Config{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("E2 row reports incorrect enumeration: %v", row)
		}
		sp := strings.TrimSuffix(row[5], "x")
		v, err := strconv.ParseFloat(sp, 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[5])
		}
		if v < 1 {
			t.Errorf("baseline faster than algorithm at k=%s (%sx)", row[2], sp)
		}
	}
}

// TestE4ShapeDecreasing asserts that revealed paths shrink as k grows.
func TestE4ShapeDecreasing(t *testing.T) {
	table, err := E4RevealedPaths(Config{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, row := range table.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if v > prev*1.5 {
			t.Errorf("revealed paths increased with k: %v after %v", v, prev)
		}
		prev = v
	}
}

// TestE15MeasuredAboveGLBT asserts that no upper bound undercuts its
// lower bound: every measured round count is at least the GLBT bound
// for the same problem, n, k and bandwidth (gap ≥ 1).
func TestE15MeasuredAboveGLBT(t *testing.T) {
	table, err := E15Gap(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		gap, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad gap cell %q", row[5])
		}
		if gap < 1 {
			t.Errorf("%s: measured %s rounds below the GLBT lower bound %s (gap %s)", row[0], row[3], row[4], row[5])
		}
	}
}

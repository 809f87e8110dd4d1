// In-package tests for unexported details; the rest of the suite lives
// in package partition_test so it can import internal/gen (which
// imports this package for its inputs).
package partition

import (
	"strings"
	"testing"

	"kmachine/internal/graph"
)

func TestBalanceEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	// A zero-vertex graph has all-empty machines; Balance reports 0/0.
	p := &VertexPartition{G: g, K: 3, locals: make([][]int32, 3)}
	min, max := p.Balance()
	if min != 0 || max != 0 {
		t.Errorf("empty balance [%d,%d], want [0,0]", min, max)
	}
}

func TestConversionErrorMessage(t *testing.T) {
	err := errEdgeMissing(2, 5, 7)
	for _, want := range []string{"without a local edge", "machine 2 ", "(5,7)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text %q does not contain %q", err.Error(), want)
		}
	}
}

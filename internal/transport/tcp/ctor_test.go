package tcp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneEndpointConstructor: every Endpoint is attached to a connected
// mesh for one job, and a single run is job 0 — one lifecycle (Attach,
// then Detach or Close) and one framing. A second
// function returning *Endpoint would bring back an endpoint made some
// other way, with its own state to guard, so only Attach and the
// newEndpoint it calls may return one.
func TestOneEndpointConstructor(t *testing.T) {
	seen := map[string]bool{}
	for _, src := range parseNonTest(t) {
		for _, decl := range src.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Type.Results == nil || !slices.ContainsFunc(fn.Type.Results.List, returnsEndpoint) {
				continue
			}
			if name := fn.Name.Name; name == "Attach" || name == "newEndpoint" {
				seen[name] = true
			} else {
				t.Errorf("%s: %s returns an *Endpoint; only Attach (and its newEndpoint) may make one", src.name, name)
			}
		}
	}
	if !seen["Attach"] || !seen["newEndpoint"] {
		t.Errorf("found %v returning *Endpoint: the walk missed Attach or newEndpoint", seen)
	}
}

// TestNoSingleRunBranch: job 0, a single run, frames and checks its
// batches like any other job, so no non-test code of the package
// compares a job ID with 0. Such a comparison would bring back a second
// framing, and a single run left without the straggler-frame check.
func TestNoSingleRunBranch(t *testing.T) {
	isJobID := func(x ast.Expr) bool {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			x = sel.Sel
		}
		id, ok := x.(*ast.Ident)
		return ok && id.Name == "jobID"
	}
	isZero := func(x ast.Expr) bool {
		lit, ok := x.(*ast.BasicLit)
		return ok && lit.Kind == token.INT && lit.Value == "0"
	}
	reads := 0
	for _, src := range parseNonTest(t) {
		ast.Inspect(src.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "jobID" {
					reads++
				}
			case *ast.BinaryExpr:
				if (isJobID(n.X) && isZero(n.Y)) || (isZero(n.X) && isJobID(n.Y)) {
					t.Errorf("%s: %s compares the job ID with 0", src.fset.Position(n.Pos()), n.Op)
				}
			}
			return true
		})
	}
	if reads == 0 {
		t.Error("found no use of jobID: the walk missed the framing")
	}
}

// TestOneWritePath: every frame an endpoint sends is written by the
// goroutine that made it, and the package's only goroutines are its
// readers. A writer worker (a go statement around runWriter), or a rule
// that picks the write path by the number of cores (any mention of
// GOMAXPROCS), would bring back a second way onto the wire.
func TestOneWritePath(t *testing.T) {
	writes := 0
	for _, src := range parseNonTest(t) {
		ast.Inspect(src.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				ast.Inspect(n.Call, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && id.Name == "runWriter" {
						t.Errorf("%s: a goroutine is started around runWriter", src.fset.Position(n.Pos()))
					}
					return true
				})
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "runWriter" {
					writes++
				}
			}
			return true
		})
		for i, line := range strings.Split(string(src.text), "\n") {
			if strings.Contains(line, "GOMAXPROCS") {
				t.Errorf("%s:%d: a non-test file of the package mentions GOMAXPROCS", src.name, i+1)
			}
		}
	}
	if writes == 0 {
		t.Error("found no runWriter call: the walk missed the write path")
	}
}

// source is one parsed non-test file of the package.
type source struct {
	name string
	text []byte
	fset *token.FileSet
	f    *ast.File
}

func parseNonTest(t *testing.T) []source {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var srcs []source
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, text, 0)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{name, text, fset, f})
	}
	return srcs
}

// returnsEndpoint reports whether a result is an *Endpoint[…] or an
// []*Endpoint[…].
func returnsEndpoint(res *ast.Field) bool {
	typ := res.Type
	if arr, ok := typ.(*ast.ArrayType); ok {
		typ = arr.Elt
	}
	star, ok := typ.(*ast.StarExpr)
	if !ok {
		return false
	}
	x := star.X
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	id, ok := x.(*ast.Ident)
	return ok && id.Name == "Endpoint"
}

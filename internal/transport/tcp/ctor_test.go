package tcp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneEndpointConstructor: every Endpoint is attached to a connected
// mesh for one job, and a single run is job 0 — one lifecycle (Attach,
// then Detach or Close) and one framing switch (jobID != 0). A second
// function returning *Endpoint would bring back an endpoint made some
// other way, with its own state to guard, so only Attach and the
// newEndpoint it calls may return one.
func TestOneEndpointConstructor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Type.Results == nil || !slices.ContainsFunc(fn.Type.Results.List, returnsEndpoint) {
				continue
			}
			if name := fn.Name.Name; name == "Attach" || name == "newEndpoint" {
				seen[name] = true
			} else {
				t.Errorf("%s: %s returns an *Endpoint; only Attach (and its newEndpoint) may make one", file, name)
			}
		}
	}
	if !seen["Attach"] || !seen["newEndpoint"] {
		t.Errorf("found %v returning *Endpoint: the walk missed Attach or newEndpoint", seen)
	}
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

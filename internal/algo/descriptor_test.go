package algo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMachinesBuiltOnlyByDescriptors: every all-k run enters through
// Run, which builds each machine with its descriptor's NewMachine, so
// the module calls core.NewCluster in this package's algo.go alone —
// and in partition.ConvertREPToRVP, which keeps its own cluster because
// partition cannot import algo (algo imports partition).
func TestMachinesBuiltOnlyByDescriptors(t *testing.T) {
	const root = "../.." // internal/algo → module root
	allowed := map[string]bool{"internal/algo/algo.go": true, "internal/partition/convert.go": true}
	calls := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			core := importName(f, "kmachine/internal/core")
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fun := call.Fun
				switch g := fun.(type) { // core.NewCluster[M](…)
				case *ast.IndexExpr:
					fun = g.X
				case *ast.IndexListExpr:
					fun = g.X
				}
				if sel, ok := fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewCluster" {
					if x, ok := sel.X.(*ast.Ident); ok && core != "" && x.Name == core {
						calls++
						if !allowed[rel] {
							t.Errorf("%s:%d: core.NewCluster called outside internal/algo/algo.go and internal/partition/convert.go",
								rel, fset.Position(call.Pos()).Line)
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls < len(allowed) {
		t.Errorf("found %d core.NewCluster calls: the walk missed %v", calls, allowed)
	}
}

// importName is the name f refers to the package at path by, or "" if
// f does not import it.
func importName(f *ast.File, path string) string {
	for _, spec := range f.Imports {
		if p, _ := strconv.Unquote(spec.Path.Value); p != path {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

package core

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCoreImportsNoSocketPackage keeps the layering: the in-process link
// runs over the loopback, and sockets belong to the socket link
// (transport/node), which sits above core. It walks the transitive
// kmachine imports of core's non-test files and fails if a socket
// package is among them, naming the chain that reached it.
func TestCoreImportsNoSocketPackage(t *testing.T) {
	const module = "kmachine"
	root, err := filepath.Abs("../..") // internal/core → module root
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	forbidden := map[string]bool{
		module + "/internal/transport/tcp":  true,
		module + "/internal/transport/node": true,
	}
	start := module + "/internal/core"
	via := map[string]string{start: ""} // package -> the package that first imported it
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		pkg := queue[0]
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, module)))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files in %s (%v)", pkg, dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				imp := strings.Trim(spec.Path.Value, `"`)
				if _, seen := via[imp]; seen || (imp != module && !strings.HasPrefix(imp, module+"/")) {
					continue
				}
				via[imp] = pkg
				if forbidden[imp] {
					chain := imp
					for p := pkg; p != ""; p = via[p] {
						chain = p + " → " + chain
					}
					t.Errorf("internal/core depends on a socket package: %s", chain)
				}
				queue = append(queue, imp)
			}
		}
	}
	if len(via) < 2 {
		t.Fatalf("walked only %v: the import walk found nothing to check", via)
	}
}

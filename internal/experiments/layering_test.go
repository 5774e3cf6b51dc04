package experiments

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDoesNotImportServing guards the layering: the evaluation layer sits
// below the HTTP serving tier, so no non-test import path from this package
// may reach internal/serving. Shared code (the table cache) belongs in a
// package both import.
func TestDoesNotImportServing(t *testing.T) {
	const module, forbidden = "repro", "repro/internal/serving"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// via maps each reached module package to the package that imported it,
	// so a failure can print the offending chain.
	via := map[string]string{module + "/internal/experiments": ""}
	queue := []string{module + "/internal/experiments"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if path == forbidden {
			chain := []string{path}
			for p := via[path]; p != ""; p = via[p] {
				chain = append([]string{p}, chain...)
			}
			t.Fatalf("internal/experiments imports internal/serving: %s", strings.Join(chain, " → "))
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module+"/")))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := via[imp]; seen || !strings.HasPrefix(imp, module+"/") {
				continue
			}
			via[imp] = path
			queue = append(queue, imp)
		}
	}
	if len(via) < 10 {
		t.Fatalf("walked only %d module packages; the import walk is broken", len(via))
	}
}

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed lists exported names that may have no non-test
// reference: methods that satisfy interfaces the standard library calls
// through, the demo probes only tests and scripts read, and the paper's
// (u,v,d) interval tests and tree rendering, which state the encoding that
// index/posting_quick_test.go checks against.
var surfaceAllowed = map[string]bool{
	"MarshalJSON":  true,
	"Unwrap":       true,
	"Error":        true,
	"String":       true,
	"DemoQueries":  true,
	"IsAncestorOf": true,
	"IsParentOf":   true,
	"TreeString":   true,
}

// TestExportedNamesHaveCallers: every exported top-level name — function,
// method, type, variable or constant — declared in a non-test file outside
// bench/ is referenced by some non-test file other than through its own
// declaration (bench/ counts as a referrer). The check goes by name, not by
// type, so it can miss dead code whose name is used elsewhere; it cannot
// miss a name nothing mentions. Code that ships but nothing runs is
// deleted, or moved into the test files that use it.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, file string }
	var decls []decl
	refs := map[string]bool{} // names mentioned other than where declared
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, id := range topLevelNames(f) {
			declared[id] = true
			if id.IsExported() && !strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
				decls = append(decls, decl{id.Name, path})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported declarations; is the walk rooted at the module?", len(decls))
	}
	var dead []string
	for _, d := range decls {
		if surfaceAllowed[d.name] {
			continue
		}
		if !refs[d.name] {
			dead = append(dead, d.file+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no reference from non-test code", d)
	}
}

// topLevelNames returns the identifiers a file's top-level declarations
// introduce: functions, methods, types, variables and constants.
func topLevelNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return out
}

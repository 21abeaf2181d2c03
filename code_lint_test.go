package wats

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The ceilings TestLineBudget holds the module to. A change that grows
// past one raises it in its own diff, so the growth shows there.
const (
	maxGoLines     = 26549  // non-test Go lines, counted as `make loc` counts .
	maxDesignBytes = 101582 // DESIGN.md
)

// TestLineBudget is the line ratchet: the module's non-test Go lines and
// DESIGN.md's size may not pass the ceilings above.
func TestLineBudget(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		lines += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines > maxGoLines {
		t.Errorf("%d non-test Go lines, over the ceiling of %d: delete code, or raise maxGoLines in this diff", lines, maxGoLines)
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) > maxDesignBytes {
		t.Errorf("DESIGN.md is %d bytes, over the ceiling of %d: cut it, or raise maxDesignBytes in this diff", len(doc), maxDesignBytes)
	}
	t.Logf("%d/%d non-test Go lines, %d/%d DESIGN.md bytes", lines, maxGoLines, len(doc), maxDesignBytes)
}

// TestNoUnusedExports fails when an exported top-level func, type, var or
// const under internal/ is referenced by no non-test .go file of the
// module: code only tests call is not shipped code. Delete it, or move it
// into a _test.go file if tests still want it. A reference is any use
// outside the name's own declaration — from its own package, from cmd/,
// bench/, examples/ or a wats.go re-export — except a method's receiver,
// so a type is not kept alive by its own methods.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "internal/deque.Deque" → where
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name → module-relative dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if rel, ok := strings.CutPrefix(ip, "wats/"); ok {
				name := path.Base(rel)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = rel
			}
		}
		// refs marks every exported name n references, skipping own (the
		// name being declared) and struct, interface and parameter names.
		refs := func(n ast.Node, own string) {
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							used[rel+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field:
					if n.Type != nil {
						ast.Inspect(n.Type, visit)
					}
					return false
				case *ast.Ident:
					if n.IsExported() && n.Name != own {
						used[dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(n, visit)
		}
		declare := func(id *ast.Ident) {
			if strings.HasPrefix(dir, "internal/") && id.IsExported() {
				declared[dir+"."+id.Name] = fset.Position(id.Pos())
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name)
					refs(decl, decl.Name.Name)
				} else {
					refs(decl.Type, "")
					if decl.Body != nil {
						refs(decl.Body, "")
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name)
						refs(spec, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id)
						}
						if spec.Type != nil {
							refs(spec.Type, "")
						}
						for _, v := range spec.Values {
							refs(v, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 300 {
		t.Fatalf("only %d exported names found under internal/; the scan is broken", len(declared))
	}
	var unused []string
	for name, pos := range declared {
		if !used[name] {
			unused = append(unused, pos.String()+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file references it: delete it, or move it into a _test.go file", u)
	}
}

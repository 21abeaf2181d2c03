package wats

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignNamesExistingTests fails when DESIGN.md names a Test…, Fuzz…
// or Benchmark… function that no _test.go file in the module defines, so
// a renamed, moved or deleted test cannot leave the design document
// pointing at nothing. A name followed by '*' (TestZeroAlloc*) names
// every function with that prefix, and must match at least one.
func TestDesignNamesExistingTests(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var defs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range defRe.FindAllSubmatch(src, -1) {
			defs = append(defs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) < 100 {
		t.Fatalf("suspiciously few test functions found (%d)", len(defs))
	}

	named := 0
	for _, m := range regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`).FindAllStringSubmatch(string(doc), -1) {
		name, prefix := m[1], m[2] == "*"
		named++
		found := false
		for _, d := range defs {
			if d == name || prefix && strings.HasPrefix(d, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("DESIGN.md names %s%s, which no _test.go defines", name, m[2])
		}
	}
	if named == 0 {
		t.Fatal("DESIGN.md names no tests at all; the pattern is broken")
	}
}

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

// TestDocsNameExistingCommands fails when a document a reader follows to
// run something — README.md, DESIGN.md, EXPERIMENTS.md, the gnuplot
// scripts' headers, the repository's skill notes (.*/skills/*/SKILL.md) —
// names a cmd/<x> or examples/<x> that is not a directory of the module,
// or a `make <target>` (in backquotes or opening a code line) that the
// Makefile does not define. A brace list (cmd/{a,b}) names each member.
func TestDocsNameExistingCommands(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	makeRe := regexp.MustCompile("(?m)(?:`|^[ \t]*)make (?:-s )?([a-z][\\w-]*)")
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, pat := range []string{"plots/*.plt", ".*/skills/*/SKILL.md"} {
		found, err := filepath.Glob(pat)
		if err != nil || len(found) == 0 {
			t.Fatalf("nothing matches %s (%v)", pat, err)
		}
		docs = append(docs, found...)
	}
	refRe := regexp.MustCompile(`\b(cmd|examples)/(\{[\w,]+\}|\w+)`)
	named, made := 0, 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range refRe.FindAllStringSubmatch(string(src), -1) {
			for _, name := range strings.Split(strings.Trim(m[2], "{}"), ",") {
				named++
				if fi, err := os.Stat(filepath.Join(m[1], name)); err != nil || !fi.IsDir() {
					t.Errorf("%s names %s/%s, which does not exist", doc, m[1], name)
				}
			}
		}
		for _, m := range makeRe.FindAllStringSubmatch(string(src), -1) {
			made++
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
	}
	if named == 0 || made == 0 || len(targets) == 0 {
		t.Fatalf("%d cmd/ or examples/ names, %d make targets named, %d defined; a pattern is broken", named, made, len(targets))
	}
}

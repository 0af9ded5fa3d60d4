package prism

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"prism/internal/bench"
)

// testFuncRE matches a test, benchmark or fuzz function's declaration.
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// testNameRE matches a test, benchmark or fuzz name as the docs write it:
// brace alternatives ({a,b}) expand, and a trailing * is a prefix.
var testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)(?:[A-Z0-9_]|\{)(?:\w|\{[\w,]*\})*\*?`)

// citationRE matches a citation of an EXPERIMENTS.md section by title.
var citationRE = regexp.MustCompile(`EXPERIMENTS\.md,? "([^"]+)"`)

// goFiles returns the repository's Go files, relative to its root.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// expandBraces expands every {a,b} of name into one name per alternative.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandBraces(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// TestDocTestNamesExist: every Test, Benchmark and Fuzz name DESIGN.md and
// README.md cite names a function in the tree, so a doc cannot keep
// pointing at a test that was deleted or renamed.
func TestDocTestNamesExist(t *testing.T) {
	have := map[string]bool{}
	for _, f := range goFiles(t) {
		if strings.HasSuffix(f, "_test.go") {
			for _, m := range testFuncRE.FindAllStringSubmatch(readFile(t, f), -1) {
				have[m[1]] = true
			}
		}
	}
	exists := func(name string) bool {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			for h := range have {
				if strings.HasPrefix(h, prefix) {
					return true
				}
			}
			return false
		}
		return have[name]
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, cited := range testNameRE.FindAllString(readFile(t, doc), -1) {
			for _, name := range expandBraces(cited) {
				if !exists(name) {
					t.Errorf("%s cites %s (as %q), which no test file declares", doc, name, cited)
				}
			}
		}
	}
}

// TestExperimentsCitationsResolve: every citation of an EXPERIMENTS.md
// section by its quoted title, in the docs, CI and Go sources, is the
// start of one of its headings, so folding or renaming a section cannot
// strand a citation. A citation may wrap across lines, comment markers
// included.
func TestExperimentsCitationsResolve(t *testing.T) {
	var headings []string
	for _, line := range strings.Split(readFile(t, "EXPERIMENTS.md"), "\n") {
		if strings.HasPrefix(line, "#") {
			headings = append(headings, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	sources := append([]string{"DESIGN.md", "README.md", "ROADMAP.md", ".github/workflows/ci.yml"}, goFiles(t)...)
	for _, src := range sources {
		var text strings.Builder
		for _, line := range strings.Split(readFile(t, src), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasSuffix(src, ".md") {
				line = strings.TrimSpace(strings.TrimLeft(line, "/#"))
			}
			text.WriteString(line + " ")
		}
		for _, m := range citationRE.FindAllStringSubmatch(text.String(), -1) {
			if !slices.ContainsFunc(headings, func(h string) bool { return strings.HasPrefix(h, m[1]) }) {
				t.Errorf("%s cites EXPERIMENTS.md %q, which begins no heading", src, m[1])
			}
		}
	}
}

// TestFigureTableIsTheRegistry: DESIGN.md §4's per-experiment table lists
// exactly the registry bench.Figures, in registry order, with ✓ in its
// "all" column on exactly the members of `prismbench all`, so a figure
// cannot be added or deleted without its row.
func TestFigureTableIsTheRegistry(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	start := strings.Index(design, "\n## 4. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4")
	}
	section := design[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	type row struct {
		id  string
		all bool
	}
	var table, registry []row
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		id := strings.Trim(strings.TrimSpace(cells[1]), "`")
		table = append(table, row{id, strings.TrimSpace(cells[2]) == "✓"})
	}
	for _, f := range bench.Figures {
		registry = append(registry, row{f.Name, f.All})
	}
	if !slices.Equal(table, registry) {
		t.Errorf("DESIGN.md §4 lists (id, all)\n  %v\nthe registry is\n  %v", table, registry)
	}
}

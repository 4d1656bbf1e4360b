package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	progOnce sync.Once
	prog     *Program
	progErr  error
)

// loadProg loads the module once for the whole test binary (the source
// importer type-checks the stdlib from scratch, which dominates the cost).
func loadProg(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			progErr = err
			return
		}
		prog, progErr = LoadModule(root)
	})
	if progErr != nil {
		t.Fatalf("loading module: %v", progErr)
	}
	return prog
}

// expectation is one `// want` annotation: a regexp that must match a
// finding ("[rule] message") on the given line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRx = regexp.MustCompile("`([^`]*)`")

// parseWants reads the `// want` annotations of every fixture file. An
// annotation normally applies to its own line; a comment line that IS the
// annotation (nothing before it) applies to the next line, which lets
// fixtures annotate findings on comment lines (lint directives).
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based: the annotation's own line
			if strings.HasPrefix(strings.TrimSpace(line), "// want ") {
				target = i + 2 // standalone annotation: the next line
			}
			for _, m := range wantRx.FindAllStringSubmatch(line[idx:], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: abs, line: target, re: re})
			}
		}
	}
	return wants
}

// TestFixtures runs the full analyzer suite over each seeded fixture
// package and checks the findings against the `// want` annotations —
// both directions: every want matched, every finding expected.
func TestFixtures(t *testing.T) {
	prog := loadProg(t)
	fixtures := []string{
		"batchproto",
		"cowescape",
		"ctxprop",
		"hotpath",
		"ignorehygiene",
		"sentinel",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := prog.LoadDir(dir, "fixture/"+name)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want annotations", name)
			}
			findings := Check([]*Pkg{pkg}, All())
			for _, f := range findings {
				text := fmt.Sprintf("[%s] %s", f.Rule, f.Msg)
				matched := false
				for _, w := range wants {
					if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(text) {
						w.hit = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestRepoIsLintClean is the meta-test: the suite must report zero
// findings over the module itself. A red run here means either a real
// regression or a rule change that needs accompanying fixes — exactly the
// gate `make lint` enforces in CI.
func TestRepoIsLintClean(t *testing.T) {
	prog := loadProg(t)
	findings := Check(prog.ModulePkgs(), All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("repo is not lint-clean: %d finding(s)", len(findings))
	}
}

// TestAllAnalyzers pins the suite shape: the five invariant rules plus
// ignore-hygiene, unique names, docs present.
func TestAllAnalyzers(t *testing.T) {
	as := All()
	if len(as) < 6 {
		t.Fatalf("expected at least 6 analyzers, got %d", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{
		"batch-protocol", "cow-escape", "ctx-propagation",
		"hot-path-alloc", "ignore-hygiene", "sentinel-errors",
	} {
		if !seen[want] {
			t.Errorf("missing analyzer %q", want)
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
	}{
		{"plain", ""},
		{"%d", "d"},
		{"%s: %w", "sw"},
		{"%%d %v", "v"},
		{"%+v %#x", "vx"},
		{"%*d", "*d"},
		{"%[1]s", "s"},
		{"%5.2f", "f"},
	}
	for _, c := range cases {
		got := string(formatVerbs(c.format))
		if got != c.want {
			t.Errorf("formatVerbs(%q) = %q, want %q", c.format, got, c.want)
		}
	}
}

package agilepower

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileRunPatternsNameRealTests guards the Makefile's targeted
// test gates. `go test -run 'A|B'` passes silently when a name matches
// nothing, so a renamed or deleted test would quietly drop out of its
// gate. Every alternative of every -run pattern must match a Test,
// Fuzz or Example function declared somewhere in the module, and every
// alternative of every -bench pattern a Benchmark function.
func TestMakefileRunPatternsNameRealTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	tests, benches := declaredTestFuncs(t)
	targetRE := regexp.MustCompile(`^([A-Za-z0-9_-]+):`)
	flagRE := regexp.MustCompile(` -(run|bench)[ =]('[^']*'|\S+)`)
	target, checked := "", 0
	for _, line := range strings.Split(string(data), "\n") {
		if m := targetRE.FindStringSubmatch(line); m != nil {
			target = m[1]
		}
		// Only recipe lines run commands; comments may say "run".
		if !strings.HasPrefix(line, "\t") || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		// make unescapes $$ to $ before the shell sees the pattern.
		line = strings.ReplaceAll(line, "$$", "$")
		for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
			flag, pattern := m[1], strings.Trim(m[2], "'")
			if pattern == "^$" {
				continue // deliberately matches nothing: "run no tests"
			}
			names := tests
			if flag == "bench" {
				names = benches
			}
			// go test matches each slash-separated level separately;
			// the first level names the top-level function.
			top := splitTopLevel(pattern, '/')[0]
			if strings.HasPrefix(top, "(") && strings.HasSuffix(top, ")") {
				top = top[1 : len(top)-1]
			}
			for _, alt := range splitTopLevel(top, '|') {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("make %s: -%s alternative %q: %v", target, flag, alt, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("make %s: -%s alternative %q matches no declared function", target, flag, alt)
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("checked only %d pattern alternatives; is the Makefile parsed right?", checked)
	}
}

// declaredTestFuncs parses every _test.go file in the module and
// returns the names of its top-level test-like functions: tests (with
// fuzz targets and examples) and benchmarks.
func declaredTestFuncs(t *testing.T) (tests, benches []string) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			switch name := fn.Name.Name; {
			case strings.HasPrefix(name, "Benchmark"):
				benches = append(benches, name)
			case strings.HasPrefix(name, "Test"), strings.HasPrefix(name, "Fuzz"), strings.HasPrefix(name, "Example"):
				tests = append(tests, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests, benches
}

// splitTopLevel splits s at every sep that sits outside parentheses
// and brackets.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

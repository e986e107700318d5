package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simulationPackages are the packages whose results must be a pure
// function of the seed: every random draw comes from an explicit rng
// stream and no value depends on the wall clock.
var simulationPackages = []string{
	"san", "des", "model", "rng", "cyclesim", "vr", "stats", "phasetrace",
}

// nondeterministicUses lists the forbidden uses in one parsed file: an
// import of math/rand or math/rand/v2 (a shared global generator), and a
// reference to time.Now or time.Since (a wall-clock read), under whatever
// name the file imports package time.
func nondeterministicUses(fset *token.FileSet, f *ast.File) []string {
	var out []string
	timeNames := map[string]bool{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "math/rand", "math/rand/v2":
			out = append(out, fset.Position(imp.Pos()).String()+": imports "+path)
		case "time":
			name := "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				out = append(out, fset.Position(imp.Pos()).String()+": dot-imports time")
			}
			timeNames[name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && timeNames[id.Name] {
			out = append(out, fset.Position(sel.Pos()).String()+": calls time."+sel.Sel.Name)
		}
		return true
	})
	return out
}

// TestSimulationPackagesDeterministic forbids global math/rand and
// wall-clock reads in the non-test files of the simulation packages, so
// seeded runs stay reproducible bit for bit.
func TestSimulationPackagesDeterministic(t *testing.T) {
	for _, pkg := range simulationPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, use := range nondeterministicUses(fset, f) {
				t.Errorf("nondeterministic use in simulation package %s: %s", pkg, use)
			}
		}
		if parsed == 0 {
			t.Errorf("simulation package %s: no non-test Go files found", pkg)
		}
	}
}

// TestNondeterministicUsesDetected keeps the guard from passing vacuously:
// each forbidden form, including a renamed time import, is reported.
func TestNondeterministicUsesDetected(t *testing.T) {
	const src = `package p

import (
	"math/rand"
	r2 "math/rand/v2"
	clock "time"
)

var _ = rand.Int
var _ = r2.Int

func f() { _ = clock.Since(clock.Now()) }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(nondeterministicUses(fset, f), "\n")
	for _, want := range []string{"imports math/rand\n", "imports math/rand/v2", "calls time.Now", "calls time.Since"} {
		if !strings.Contains(got+"\n", want) {
			t.Errorf("guard missed %q; reported:\n%s", want, got)
		}
	}
}

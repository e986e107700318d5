package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow is the reachability gate's allow-list. A key is an internal
// package (its path under internal/) that no non-test file of the module
// imports, or an internal function or method ("pkg.Func",
// "pkg.Type.Method") that no root reaches. Each reason names the test that
// uses the entry as its reference or check, the ROADMAP item that claims
// it (quoted as ROADMAP "title"), or e2ebench, the benchmark module, which
// the gate reads but whose imports do not count. An allow-listed package
// is kept whole: its declarations are roots. An entry that is now reached
// or no longer exists fails the gate as stale.
var reachAllow = map[string]string{
	// Packages.
	"des":    `e2ebench's desRung times its engine, until the benchmark change of ROADMAP "One per-layer attribution, owned by the runner"`,
	"markov": `the Figure-3 chain TestFigure3MatchesSection6 checks analytic against; ROADMAP "One agreement matrix for the independent implementations" decides it`,

	// Closed forms kept as references.
	"analytic.FactorFromConditionalProb": `the closed form TestFigure3MatchesSection6 checks the markov chain against`,
	"analytic.ConditionalProbFromFactor": `the closed form TestFigure3MatchesSection6 checks the markov chain against`,
	"analytic.FailureFreeFraction":       `the failure-free limit TestCoordinationEfficiencyLimits checks CoordinationEfficiency against`,
	"phasetrace.FromEvents":              `the offline replay TestLiveRecorderMatchesReplay checks the live phase recorder against`,
	"phasetrace.StateFromMarking":        `digests the recorded markings of the replay TestLiveRecorderMatchesReplay checks against`,

	// Check facilities the tests of reached code read.
	"model.Instance.EnableInvariantChecks": `the structural invariants TestInvariantsHoldOnStressedConfigs runs the model under`,
	"model.Instance.Useful":                `the cap ordering TestModelInvariantsUnderRandomConfigs checks`,
	"model.Instance.SecuredBuffered":       `the cap ordering TestModelInvariantsUnderRandomConfigs checks`,
	"model.Instance.SecuredDurable":        `the cap ordering TestModelInvariantsUnderRandomConfigs checks`,
	"stats.Fold.ReplicationsToHalfWidth":   `the replications-to-half-width count TestVRSmokeGate gates on`,
	"rng.Stream.NormFloat64":               `the normal source of TestCICoverage`,
	"obs.LinearBuckets":                    `the bucket layout TestHistogramQuantiles checks quantile interpolation on`,
	"obs.ProfileCapture.Captures":          `the capture count TestProfileCaptureEvery checks the periodic profiler by`,
	"san.Model.LookupPlace":                `builds the reference nets of TestIndicatorRewardsDifferential`,
	"san.Simulator.AddRateReward":          `the closure reward TestIndicatorRewardsDifferential checks every compiled indicator against`,
	"san.Simulator.AddImpulse":             `the impulse reward TestHyperExponentialDifferential compares across schedulers`,
}

// stdlibMethods are the method names the standard library calls through
// an interface (fmt, errors, encoding/json, encoding, sort, io,
// net/http), so no reference in the module need name them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// reachReport is what the reachability scan finds.
type reachReport struct {
	// Packages are internal packages with no non-test importer in the
	// module and no allow-list entry.
	Packages []string
	// Decls are internal functions and methods no root reaches and no
	// allow-list entry keeps.
	Decls []string
	// Stale are allow-list entries that are reached, imported or gone.
	Stale []string
	// Tests are the Test functions declared in the tree's test files.
	Tests map[string]bool
}

// reachDecl is one function or method: its key, the name references
// match it by, and every identifier its body mentions.
type reachDecl struct {
	key, pkg, name string
	refs           []string
}

// identsIn lists every identifier under n, selector names included.
func identsIn(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// scanReach runs the reachability gate over the Go module rooted at root.
//
// The roots are every function of the module's non-internal non-test files
// (the root package, cmd/, examples/) and of any nested module's non-test
// files (e2ebench/), the initializers of package-level var, const and type
// declarations, init functions, and methods named for standard-library
// interfaces. An internal function or method is reached when a reached
// declaration mentions its name; the scan iterates to a fixpoint. Matching
// is by name alone, so a collision can keep code alive but never flags it.
// A package counts as imported only by a non-test file of this module
// outside itself.
func scanReach(root string, allow map[string]string) (reachReport, error) {
	rep := reachReport{Tests: map[string]bool{}}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return rep, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	internalPrefix := module + "/internal/"

	var (
		fset     = token.NewFileSet()
		nested   []string            // directories of nested modules
		packages = map[string]bool{} // internal packages, by path under internal/
		imported = map[string]bool{}
		decls    []reachDecl
		names    = map[string]bool{} // names mentioned by reached code
	)
	mention := func(refs []string) {
		for _, r := range refs {
			names[r] = true
		}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				nested = append(nested, path+string(filepath.Separator))
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					rep.Tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		foreign := false
		for _, n := range nested {
			foreign = foreign || strings.HasPrefix(path, n)
		}
		pkg, internal := strings.CutPrefix(rel, "internal/")
		internal = internal && !foreign
		if internal {
			packages[pkg] = true
		}
		if !foreign {
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if q, ok := strings.CutPrefix(p, internalPrefix); ok && !(internal && q == pkg) {
					imported[q] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				mention(identsIn(decl))
				continue
			}
			var refs []string
			if fn.Body != nil {
				refs = identsIn(fn.Body)
			}
			name := fn.Name.Name
			if !internal || name == "init" || (fn.Recv != nil && stdlibMethods[name]) {
				mention(refs)
				continue
			}
			key := pkg + "." + name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, reachDecl{key: key, pkg: pkg, name: name, refs: refs})
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	reached := make([]bool, len(decls))
	fixpoint := func() {
		for changed := true; changed; {
			changed = false
			for i, d := range decls {
				if !reached[i] && names[d.name] {
					reached[i] = true
					mention(d.refs)
					changed = true
				}
			}
		}
	}
	// The roots alone decide which entries are stale; the allow-listed
	// declarations then become roots themselves, so what they call stays.
	fixpoint()
	exists := map[string]bool{}
	for i, d := range decls {
		exists[d.key] = true
		if reached[i] && allow[d.key] != "" {
			rep.Stale = append(rep.Stale, d.key+": reached")
		}
	}
	for key := range allow {
		switch {
		case packages[key] && imported[key]:
			rep.Stale = append(rep.Stale, key+": imported")
		case !packages[key] && !exists[key]:
			rep.Stale = append(rep.Stale, key+": no such package or declaration")
		}
	}
	for i, d := range decls {
		if !reached[i] && (allow[d.key] != "" || allow[d.pkg] != "") {
			reached[i] = true
			mention(d.refs)
		}
	}
	fixpoint()

	for pkg := range packages {
		if !imported[pkg] && allow[pkg] == "" {
			rep.Packages = append(rep.Packages, pkg)
		}
	}
	for i, d := range decls {
		if !reached[i] {
			rep.Decls = append(rep.Decls, d.key)
		}
	}
	sort.Strings(rep.Packages)
	sort.Strings(rep.Decls)
	sort.Strings(rep.Stale)
	return rep, nil
}

var (
	testNameRe     = regexp.MustCompile(`\bTest[A-Z0-9]\w*`)
	roadmapTitleRe = regexp.MustCompile(`ROADMAP "([^"]+)"`)
)

// reasonNamesOwner reports whether an allow-list reason names a declared
// test, a ROADMAP item by its title, or e2ebench.
func reasonNamesOwner(reason string, tests map[string]bool, roadmap string) bool {
	if strings.Contains(reason, "e2ebench") {
		return true
	}
	for _, name := range testNameRe.FindAllString(reason, -1) {
		if tests[name] {
			return true
		}
	}
	for _, m := range roadmapTitleRe.FindAllStringSubmatch(reason, -1) {
		if strings.Contains(roadmap, m[1]) {
			return true
		}
	}
	return false
}

// TestEveryInternalDeclarationReached is the reachability gate: every
// internal package has a non-test importer in the module and every
// internal function or method is reached from a root (see scanReach), or
// the allow-list keeps it for a reason that names its owner.
func TestEveryInternalDeclarationReached(t *testing.T) {
	rep, err := scanReach(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Packages {
		t.Errorf("internal/%s has no non-test importer: delete it or allow-list it with a reason", p)
	}
	for _, d := range rep.Decls {
		t.Errorf("%s is reached from no root: delete it or allow-list it with a reason", d)
	}
	for _, s := range rep.Stale {
		t.Errorf("stale allow-list entry %s", s)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	for key, reason := range reachAllow {
		if !reasonNamesOwner(reason, rep.Tests, string(roadmap)) {
			t.Errorf("allow-list entry %s: reason %q names no declared test, ROADMAP item or e2ebench", key, reason)
		}
	}
}

// TestReachabilityGateBites keeps the gate from passing vacuously: on the
// fixture module in testdata/reach it reports exactly the unreached C, the
// D only C reaches and the stale entry, it refuses a reason that names no
// owner, and it reports an unimported package once that package's entry is
// gone.
func TestReachabilityGateBites(t *testing.T) {
	allow := map[string]string{
		"orphan":   "kept to test the package rule",
		"lib.Gone": "stale: lib has no Gone",
	}
	rep, err := scanReach(filepath.Join("testdata", "reach"), allow)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(append(append(rep.Packages, rep.Decls...), rep.Stale...), " | ")
	if want := "lib.C | lib.D | lib.Gone: no such package or declaration"; got != want {
		t.Errorf("scan reported %q, want %q", got, want)
	}
	tests := map[string]bool{"TestUsesIt": true}
	for reason, owned := range map[string]bool{
		"kept just in case":                 false,
		"TestUsesIt reads it":               true,
		"TestGone reads it":                 false,
		`ROADMAP "Retire the widget" wants`: true,
		`ROADMAP "Some other item" wants`:   false,
		"e2ebench times it":                 true,
	} {
		if got := reasonNamesOwner(reason, tests, "- **Retire the widget.**"); got != owned {
			t.Errorf("reason %q names an owner: %v, want %v", reason, got, owned)
		}
	}
	delete(allow, "orphan")
	if rep, err = scanReach(filepath.Join("testdata", "reach"), allow); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(append(rep.Packages, rep.Decls...), " | "); got != "orphan | lib.C | lib.D | orphan.Lost" {
		t.Errorf("without its entry, scan reported %q", got)
	}
}

package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow is the reachability gate's allow-list. A key is an internal
// package (its path under internal/) that no non-test file of the module
// imports, or an internal type, function or method ("pkg.Type",
// "pkg.Func", "pkg.Type.Method") that no root reaches. Each reason names
// the test that uses the entry as its reference or check, the ROADMAP item
// that claims it (quoted as ROADMAP "title"), or e2ebench, the benchmark
// module, which the gate reads but whose imports do not count. An
// allow-listed package or type is kept whole: its declarations, or its
// methods, are roots. An entry that is now reached or no longer exists
// fails the gate as stale.
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
	"rng.HyperExponential":               `the mixture TestHyperExponentialDifferential drives both schedulers with; TestHyperExponentialMean checks its sample mean against its Mean`,
	"rng.MaxOfNExponentials.Mean":        `the closed form TestMaxOfNExponentialsHugeN checks sample means against`,
	"rng.MaxOfGroups.Mean":               `the integrated mean TestMaxOfGroupsStragglersDominate checks sample means against`,
	"stats.PairedAccumulator.CI":         `the interval TestPairedFoldMatchesAccumulator checks the paired fold's against`,
	"stats.BatchMeans":                   `the single-run fallback ROADMAP "Do the confidence intervals mean what they say?" proposes`,

	// Check facilities the tests of reached code read.
	"model.Instance.EnableInvariantChecks": `the structural invariants TestInvariantsHoldOnStressedConfigs runs the model under`,
	"model.Instance.Useful":                `the cap ordering TestModelInvariantsUnderRandomConfigs checks`,
	"model.Instance.SecuredBuffered":       `the cap ordering TestModelInvariantsUnderRandomConfigs checks`,
	"model.Instance.SecuredDurable":        `the cap ordering TestModelInvariantsUnderRandomConfigs checks`,
	"model.Instance.Counters":              `the event tallies TestRebootAfterThreshold and TestTimeoutConfigAborts check`,
	"model.Instance.Model":                 `the SAN structure TestModelHasAllSubmodels checks`,
	"model.Instance.Snapshot":              `the marking by place name TestStateExclusivity checks`,
	"model.Breakdown.Sum":                  `the sum TestBreakdownSumsToOne checks on every breakdown`,
	"obs.LocalCounter.Value":               `the unmerged count TestShardMerge checks Merge resets`,
	"obs.LocalHistogram.Count":             `the unmerged count TestShardMerge checks Merge resets`,
	"san.ImpulseHook.Count":                `the impulse count TestHyperExponentialDifferential compares across schedulers`,
	"san.ImpulseHook.Total":                `the impulse total TestResetReusesSchedulerState checks Reset clears`,
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
// net/http), so no reference in the module need name them. Such a method
// is reached when its receiver type is.
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
	// Decls are internal types, functions and methods no root reaches and
	// no allow-list entry keeps.
	Decls []string
	// Stale are allow-list entries that are reached, imported or gone.
	Stale []string
	// Where is the file:line, relative to the scanned root, of each
	// internal package (its first file) and declaration.
	Where map[string]string
	// Tests are the Test functions declared in the tree's test files.
	Tests map[string]bool
	// Importers are, for each internal package, the import paths of the
	// non-test packages of the tree that import it, sorted.
	Importers map[string][]string
}

// reachDecl is one package-level function, method or named type of the
// scanned tree.
type reachDecl struct {
	key     string          // "pkg.F", "pkg.T.M" or "pkg.T"; "" outside internal packages
	pkg     string          // the internal package's path under internal/
	obj     types.Object    // *types.Func or *types.TypeName
	recv    *types.TypeName // a method's receiver type
	refs    []types.Object  // what its declaration mentions
	reached bool
}

// reachCall is a method called through an interface: the call reaches
// the method of that name on every reached type implementing iface.
type reachCall struct {
	iface *types.Interface
	pkg   *types.Package // the method's package, for unexported names
	name  string
}

// reachScan is the fixpoint over the type-checked declarations.
type reachScan struct {
	decls   map[types.Object]*reachDecl
	methods map[*types.TypeName][]*reachDecl
	called  map[types.Object]bool // methods a reached declaration calls concretely
	typeOK  map[*types.TypeName]bool
	typeSeq []*types.TypeName // typeOK's keys, in the order they were reached
	calls   []reachCall
	callSet map[reachCall]bool
	queue   []*reachDecl
}

func (s *reachScan) reach(d *reachDecl) {
	if !d.reached {
		d.reached = true
		s.queue = append(s.queue, d)
	}
}

// drain reaches everything the queued declarations mention.
func (s *reachScan) drain() {
	for len(s.queue) > 0 {
		d := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if tn, ok := d.obj.(*types.TypeName); ok {
			s.reachType(tn)
		}
		for _, o := range d.refs {
			s.mention(o)
		}
	}
}

// mention records that reached code names o: a function is reached, a
// named type is reached, a concrete method is called (and reached once
// its receiver type is), and an interface method becomes a reachCall.
func (s *reachScan) mention(o types.Object) {
	switch o := o.(type) {
	case *types.TypeName:
		if _, ok := o.Type().(*types.TypeParam); !ok {
			s.reachType(o)
		}
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			if d := s.decls[o]; d != nil {
				s.reach(d)
			}
			return
		}
		if it, ok := recv.Type().Underlying().(*types.Interface); ok {
			s.interfaceCall(reachCall{iface: it, pkg: o.Pkg(), name: o.Name()})
			return
		}
		s.called[o] = true
		if d := s.decls[o]; d != nil && s.typeOK[d.recv] {
			s.reach(d)
		}
	}
}

func (s *reachScan) reachType(tn *types.TypeName) {
	if s.typeOK[tn] {
		return
	}
	s.typeOK[tn] = true
	s.typeSeq = append(s.typeSeq, tn)
	if d := s.decls[tn]; d != nil {
		s.reach(d)
	}
	for _, m := range s.methods[tn] {
		if s.called[m.obj] || stdlibMethods[m.obj.Name()] {
			s.reach(m)
		}
	}
	for i := 0; i < len(s.calls); i++ {
		s.dispatch(tn, s.calls[i])
	}
}

func (s *reachScan) interfaceCall(c reachCall) {
	if s.callSet[c] {
		return
	}
	s.callSet[c] = true
	s.calls = append(s.calls, c)
	for i := 0; i < len(s.typeSeq); i++ {
		s.dispatch(s.typeSeq[i], c)
	}
}

// dispatch calls c's method on tn if tn or *tn implements c's interface.
// A generic type is taken to implement it whenever it has the method.
func (s *reachScan) dispatch(tn *types.TypeName, c reachCall) {
	t := tn.Type()
	if tn.IsAlias() || types.IsInterface(t) {
		return
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() == 0 {
		if !types.Implements(t, c.iface) && !types.Implements(types.NewPointer(t), c.iface) {
			return
		}
	}
	if m, _, _ := types.LookupFieldOrMethod(t, true, c.pkg, c.name); m != nil {
		s.mention(m)
	}
}

// refsOf lists the objects the identifiers under n use, plus the types
// declared locally under n, which reached code can pass as interfaces.
func refsOf(n ast.Node, info *types.Info) []types.Object {
	seen := map[types.Object]bool{}
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := info.Uses[id]
		if tn, ok := info.Defs[id].(*types.TypeName); ok && tn.Parent() != tn.Pkg().Scope() {
			o = tn
		}
		if o != nil && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
		return true
	})
	return out
}

// reachPkg is one package of the scanned tree.
type reachPkg struct {
	path     string // import path
	internal string // path under internal/ of the scanned module's internal packages
	files    []*ast.File
	imports  map[string]bool
	types    *types.Package
	info     *types.Info
}

// scanReach runs the reachability gate over the Go module rooted at root
// and any module nested in it, type-checked together (the standard
// library from the export data `go list -export` reports), so that each
// reference resolves to the declaration it names.
//
// The roots are every declaration of the module's non-internal non-test
// files (the root package, cmd/, examples/) and of any nested module's
// non-test files (e2ebench/), the initializers of the internal packages'
// package-level var and const declarations (a blank `var _ I = T{}`
// assertion excepted), and init functions. From there, to a fixpoint:
// a function is reached when reached code refers to it; a named type when
// reached code mentions it; a method when its receiver type is reached
// and reached code calls it, on that type or through an interface the
// type implements, or it is named for a standard-library interface. A
// package counts as imported only by a non-test file of this module
// outside itself.
func scanReach(root string, allow map[string]string) (reachReport, error) {
	rep := reachReport{Tests: map[string]bool{}, Where: map[string]string{}, Importers: map[string][]string{}}
	modulePath := func(dir string) (string, error) {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil {
			return "", err
		}
		return strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module")), nil
	}
	module, err := modulePath(root)
	if err != nil {
		return rep, err
	}
	internalPrefix := module + "/internal/"

	type nestedModule struct{ dir, path string }
	var (
		fset     = token.NewFileSet()
		nested   []nestedModule
		pkgs     = map[string]*reachPkg{} // by import path
		packages = map[string]bool{}      // internal packages, by path under internal/
		imported = map[string]bool{}
		std      = map[string]bool{}
	)
	where := func(p token.Pos) string {
		pos := fset.Position(p)
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		return filepath.ToSlash(rel) + ":" + strconv.Itoa(pos.Line)
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
				p, err := modulePath(path)
				if err != nil {
					return err
				}
				nested = append(nested, nestedModule{path, p})
			}
			return nil
		}
		dir, name := filepath.Split(path)
		dir = filepath.Clean(dir)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					rep.Tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		modDir, modPath := root, module
		for _, n := range nested {
			if strings.HasPrefix(path, n.dir+string(filepath.Separator)) {
				modDir, modPath = n.dir, n.path
			}
		}
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		p := pkgs[importPath]
		if p == nil {
			p = &reachPkg{path: importPath, imports: map[string]bool{}}
			pkgs[importPath] = p
			if q, ok := strings.CutPrefix(importPath, internalPrefix); ok {
				p.internal = q
				packages[p.internal] = true
				rep.Where[p.internal] = where(f.Package)
			}
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			p.imports[ip] = true
			if q, ok := strings.CutPrefix(ip, internalPrefix); ok && modPath == module && q != p.internal {
				imported[q] = true
			}
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Type-check every package, module packages from source in import
	// order, the standard library from its export data.
	for _, p := range pkgs {
		for ip := range p.imports {
			if pkgs[ip] == nil && ip != "unsafe" {
				std[ip] = true
			}
			if q, ok := strings.CutPrefix(ip, internalPrefix); ok {
				rep.Importers[q] = append(rep.Importers[q], p.path)
			}
		}
	}
	for _, ps := range rep.Importers {
		sort.Strings(ps)
	}
	exports := map[string]string{}
	if len(std) > 0 {
		args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
		for ip := range std {
			args = append(args, ip)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return rep, fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, "\t"); ok {
				exports[ip] = file
			}
		}
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	var check func(p *reachPkg) error
	imp := importerFunc(func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil {
			return stdImporter.Import(path)
		}
		if p.types == nil {
			if err := check(p); err != nil {
				return nil, err
			}
		}
		return p.types, nil
	})
	check = func(p *reachPkg) error {
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		var firstErr error
		conf := types.Config{Importer: imp, Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}}
		p.types, _ = conf.Check(p.path, fset, p.files, p.info)
		return firstErr
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if p := pkgs[path]; p.types == nil {
			if err := check(p); err != nil {
				return rep, err
			}
		}
	}

	// Collect the declarations; reach the roots.
	s := &reachScan{
		decls:   map[types.Object]*reachDecl{},
		methods: map[*types.TypeName][]*reachDecl{},
		called:  map[types.Object]bool{},
		typeOK:  map[*types.TypeName]bool{},
		callSet: map[reachCall]bool{},
	}
	var all, roots []*reachDecl
	for _, path := range paths {
		p := pkgs[path]
		add := func(obj types.Object, n ast.Node, key string, recv *types.TypeName) {
			d := &reachDecl{obj: obj, pkg: p.internal, recv: recv, refs: refsOf(n, p.info)}
			if p.internal != "" && key != "" {
				d.key = p.internal + "." + key
				rep.Where[d.key] = where(obj.Pos())
			} else {
				roots = append(roots, d)
			}
			if obj != nil {
				s.decls[obj] = d
			}
			if recv != nil {
				s.methods[recv] = append(s.methods[recv], d)
			}
			all = append(all, d)
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[decl.Name].(*types.Func)
					key, recv := decl.Name.Name, (*types.TypeName)(nil)
					if r := fn.Type().(*types.Signature).Recv(); r != nil {
						t := r.Type()
						if ptr, ok := t.(*types.Pointer); ok {
							t = ptr.Elem()
						}
						recv = t.(*types.Named).Obj()
						key = recv.Name() + "." + key
					} else if key == "init" {
						key = ""
					}
					add(fn, decl, key, recv)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(p.info.Defs[spec.Name], spec, spec.Name.Name, nil)
						case *ast.ValueSpec:
							blank := true
							for _, n := range spec.Names {
								blank = blank && n.Name == "_"
							}
							if !blank || decl.Tok != token.VAR {
								add(nil, spec, "", nil)
							}
						}
					}
				}
			}
		}
	}

	// The roots alone decide which entries are stale; the allow-listed
	// declarations then become roots themselves, so what they use stays.
	for _, d := range roots {
		s.reach(d)
	}
	s.drain()
	exists := map[string]bool{}
	for _, d := range all {
		exists[d.key] = true
		if d.reached && allow[d.key] != "" {
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
	for _, d := range all {
		whole := d.recv != nil && allow[d.pkg+"."+d.recv.Name()] != ""
		if d.key != "" && (allow[d.key] != "" || allow[d.pkg] != "" || whole) {
			s.reach(d)
		}
	}
	s.drain()

	for _, path := range paths {
		if p := pkgs[path]; p.internal != "" && !imported[p.internal] && allow[p.internal] == "" {
			rep.Packages = append(rep.Packages, p.internal)
		}
	}
	for _, d := range all {
		if !d.reached {
			rep.Decls = append(rep.Decls, d.key)
		}
	}
	sort.Strings(rep.Decls)
	sort.Strings(rep.Stale)
	return rep, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

// allowLine is the file:line of key's entry in this file's reachAllow.
func allowLine(key string) string {
	src, err := os.ReadFile("reachability_test.go")
	if err != nil {
		return "reachability_test.go"
	}
	i := strings.Index(string(src), strconv.Quote(key)+":")
	return "reachability_test.go:" + strconv.Itoa(1+strings.Count(string(src[:max(i, 0)]), "\n"))
}

// TestEveryInternalDeclarationReached is the reachability gate: every
// internal package has a non-test importer in the module and every
// internal type, function and method is reached from a root (see
// scanReach), or the allow-list keeps it for a reason that names its
// owner.
func TestEveryInternalDeclarationReached(t *testing.T) {
	rep, err := scanReach(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Packages {
		t.Errorf("%s: internal/%s has no non-test importer: delete it or allow-list it with a reason", rep.Where[p], p)
	}
	for _, d := range rep.Decls {
		t.Errorf("%s: %s is reached from no root: delete it or allow-list it with a reason", rep.Where[d], d)
	}
	for _, s := range rep.Stale {
		key, _, _ := strings.Cut(s, ":")
		t.Errorf("%s: stale allow-list entry %s", allowLine(key), s)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	for key, reason := range reachAllow {
		if !reasonNamesOwner(reason, rep.Tests, string(roadmap)) {
			t.Errorf("%s: allow-list entry %s: reason %q names no declared test, ROADMAP item or e2ebench", allowLine(key), key, reason)
		}
	}
}

// TestExecHasOneImporter keeps the grid plan the one fan-out of
// estimates: the internal/exec worker pool has exactly one non-test
// importer, internal/runner, so every multi-cell estimate (figures,
// sweeps, optimum searches, sensitivity analysis) runs through
// runner.PlanGrid and runner.EstimateGrid.
func TestExecHasOneImporter(t *testing.T) {
	rep, err := scanReach(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(rep.Importers["exec"], " "), "repro/internal/runner"; got != want {
		t.Errorf("internal/exec is imported by %q, want only %q: fan estimates out through runner.PlanGrid and runner.EstimateGrid", got, want)
	}
}

// TestReachabilityGateBites keeps the gate from passing vacuously: on the
// fixture module in testdata/reach it reports exactly the unreached C, the
// D only C reaches, the E and F whose names only another package's reached
// function and method share, the type V whose method G shares only a
// reached method's name, the type Y that only a blank interface assertion
// mentions (with its H, though an interface call reaches the H of the
// reached K), and the stale entry, each at its file:line, and lib's one
// importer; it refuses a reason that names no owner, and it reports an
// unimported package once that package's entry is gone.
func TestReachabilityGateBites(t *testing.T) {
	allow := map[string]string{
		"orphan":   "kept to test the package rule",
		"lib.Gone": "stale: lib has no Gone",
	}
	rep, err := scanReach(filepath.Join("testdata", "reach"), allow)
	if err != nil {
		t.Fatal(err)
	}
	const unreached = "lib.C | lib.D | lib.E | lib.F | lib.V | lib.V.G | lib.Y | lib.Y.H"
	got := strings.Join(append(append(rep.Packages, rep.Decls...), rep.Stale...), " | ")
	if want := unreached + " | lib.Gone: no such package or declaration"; got != want {
		t.Errorf("scan reported %q, want %q", got, want)
	}
	for key, want := range map[string]string{"lib.Y.H": "internal/lib/lib.go:40", "orphan": "internal/orphan/orphan.go:2"} {
		if rep.Where[key] != want {
			t.Errorf("%s reported at %q, want %q", key, rep.Where[key], want)
		}
	}
	if got := strings.Join(rep.Importers["lib"], " "); got != "reach" {
		t.Errorf("lib importers %q, want %q", got, "reach")
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
	if got, want := strings.Join(append(rep.Packages, rep.Decls...), " | "), "orphan | "+unreached+" | orphan.Lost"; got != want {
		t.Errorf("without its entry, scan reported %q, want %q", got, want)
	}
}

// Package scenario is the declarative registry of named model
// configurations: each scenario bundles a configio file config with the
// metadata needed to pick it from a catalog — title, description,
// citation, tags and optional expected-metric hints. The built-in catalog
// is embedded from the scenarios/ directory, so every variant the
// experiments and CLIs run is data, not code; user-supplied directories
// can add scenarios or override built-ins by name.
package scenario

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/configio"
)

//go:embed scenarios/*.json
var builtinFS embed.FS

// Scenario is one named configuration plus its catalog metadata.
type Scenario struct {
	// Name is the registry key, used with -scenario on the CLIs.
	Name string `json:"name"`
	// Title is a one-line human heading for listings.
	Title string `json:"title"`
	// Description explains what the scenario models and why it exists.
	Description string `json:"description"`
	// Citation points at the paper or report the setup comes from.
	Citation string `json:"citation,omitempty"`
	// Tags group scenarios in listings ("legacy", "figure", "extension"...).
	Tags []string `json:"tags,omitempty"`
	// Expect optionally bounds a headline metric; validate-scenarios
	// checks it on a deterministic smoke replication.
	Expect *Expect `json:"expect,omitempty"`
	// Config is the model configuration in the configio JSON schema
	// (absent fields fall back to the Table 3 defaults).
	Config configio.FileConfig `json:"config"`
}

// Expect bounds the useful-work fraction a deterministic smoke run of the
// scenario should land in. The bounds are sanity rails against config-file
// regressions (a mistyped unit shifts the metric by orders of magnitude),
// not statistical statements.
type Expect struct {
	UsefulFractionMin float64 `json:"usefulFractionMin"`
	UsefulFractionMax float64 `json:"usefulFractionMax"`
}

// ClusterConfig converts the scenario's file config into a validated model
// configuration.
func (s Scenario) ClusterConfig() (cluster.Config, error) {
	c, err := s.Config.ToCluster()
	if err != nil {
		return cluster.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return c, nil
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// validate checks the scenario's metadata and that its config converts.
func (s Scenario) validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario name %q must be lower-case kebab-case", s.Name)
	}
	if s.Title == "" {
		return fmt.Errorf("scenario %q has no title", s.Name)
	}
	if s.Description == "" {
		return fmt.Errorf("scenario %q has no description", s.Name)
	}
	if e := s.Expect; e != nil {
		if e.UsefulFractionMin < 0 || e.UsefulFractionMax > 1 || e.UsefulFractionMin > e.UsefulFractionMax {
			return fmt.Errorf("scenario %q: expect bounds [%v, %v] are not a sub-interval of [0,1]",
				s.Name, e.UsefulFractionMin, e.UsefulFractionMax)
		}
	}
	if _, err := s.ClusterConfig(); err != nil {
		return err
	}
	return nil
}

// Registry maps scenario names to scenarios.
type Registry struct {
	byName map[string]Scenario
}

// New returns an empty registry.
func New() *Registry { return &Registry{byName: map[string]Scenario{}} }

// Builtin returns a fresh registry holding the embedded catalog. The
// embedded files are validated by the package tests, so a failure here is
// a build defect, not an input error — it panics rather than returning an
// error every caller would have to treat as impossible.
func Builtin() *Registry {
	r := New()
	if err := r.loadFS(builtinFS, "scenarios"); err != nil {
		panic(fmt.Sprintf("scenario: embedded catalog corrupt: %v", err))
	}
	return r
}

// Add validates the scenario and inserts it, replacing any existing
// scenario with the same name.
func (r *Registry) Add(s Scenario) error {
	if err := s.validate(); err != nil {
		return err
	}
	r.byName[s.Name] = s
	return nil
}

// Get returns the named scenario. The error for an unknown name lists the
// registered names so a typo on a command line is self-explaining.
func (r *Registry) Get(name string) (Scenario, error) {
	s, ok := r.byName[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return s, nil
}

// Names returns the registered scenario names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the scenarios in name order.
func (r *Registry) All() []Scenario {
	out := make([]Scenario, 0, len(r.byName))
	for _, n := range r.Names() {
		out = append(out, r.byName[n])
	}
	return out
}

// LoadDir reads every *.json file in dir into the registry, overriding
// same-named scenarios already present. Subdirectories are ignored.
func (r *Registry) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		s, err := Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
		if err := r.Add(s); err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
	}
	return nil
}

// loadFS reads every *.json below dir in the given filesystem.
func (r *Registry) loadFS(fsys fs.FS, dir string) error {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		f, err := fsys.Open(dir + "/" + e.Name())
		if err != nil {
			return err
		}
		s, err := Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		if want := strings.TrimSuffix(e.Name(), ".json"); s.Name != want {
			return fmt.Errorf("%s: scenario name %q does not match its filename", e.Name(), s.Name)
		}
		if err := r.Add(s); err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
	}
	return nil
}

// WriteList renders the catalog as an aligned text listing for the CLIs'
// -list-scenarios flag: name, tags and title, one scenario per line.
func (r *Registry) WriteList(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, s := range r.All() {
		fmt.Fprintf(tw, "%s\t[%s]\t%s\n", s.Name, strings.Join(s.Tags, ","), s.Title)
	}
	return tw.Flush()
}

// Resolve builds the registry the CLIs share: the built-in catalog,
// extended and overridden by the optional user directory.
func Resolve(dir string) (*Registry, error) {
	reg := Builtin()
	if dir != "" {
		if err := reg.LoadDir(dir); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// BaseConfig resolves a CLI's base configuration: the configio file at
// configPath or the named scenario (not both), else the defaults. It then
// applies the explicitly set configuration flags of fs — those named in
// the cluster parameter vocabulary, minus skip — through
// cluster.SetParam, so flag defaults never clobber what the base chose.
func (r *Registry) BaseConfig(fs *flag.FlagSet, configPath, name string, skip ...string) (cluster.Config, error) {
	cfg := cluster.Default()
	var err error
	switch {
	case configPath != "" && name != "":
		return cfg, fmt.Errorf("-scenario and -config are mutually exclusive")
	case name != "":
		var s Scenario
		if s, err = r.Get(name); err == nil {
			cfg, err = s.ClusterConfig()
		}
	case configPath != "":
		var data []byte
		if data, err = os.ReadFile(configPath); err == nil {
			cfg, err = configio.Load(bytes.NewReader(data))
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if set, perr := cluster.ParamSetter(f.Name); err == nil && perr == nil && !slices.Contains(skip, f.Name) {
			err = set(&cfg, f.Value.String())
		}
	})
	return cfg, err
}

// Parse decodes one scenario file. Unknown fields — at the top level and
// inside the nested config — are rejected to catch typos, exactly as
// configio.Load does for bare config files.
func Parse(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

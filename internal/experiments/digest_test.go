package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// figureDigests pins every grid figure byte for byte: the sha256 of its
// WriteTable output followed by its WriteCSV output at digestOpts. Any
// change to a figure's configuration, series names, x values, seeds or
// rendering changes its digest.
var figureDigests = map[string]string{
	"fig4a":                  "96663658ae9b1f46ebee679416f8d1edaea232340fc20c011d55f17931d8a95b",
	"fig4b":                  "f0da73a79b9ad777f5cbf303ddf9a5bc5d66ea4febdbd1bb8a7c6807a98334da",
	"fig4c":                  "d028005ce78c1993fb1f6f9b951cf1a37ede672202052157e4f7ddfd495d50c3",
	"fig4d":                  "4f3641b4acaf0fa515982777af791c2f351f790e4d17871c99679986beb24a72",
	"fig4e":                  "5d9f58ed6da2a8b83c4de63287e8c3b461e0ffb25b321a5029ba85494b0c7c02",
	"fig4f":                  "a47c832424fd87f6baff1a2c1f386f9ad580efa237f613f4c7a0460fa8e42925",
	"fig4g":                  "8f692870b418a79a1fdc4ca10ba8ae6074b44c893797214b0b323840f81323da",
	"fig4h":                  "effea7f3ab585d62ac1ea52bf8c8ecc271a7985dc6ebc3b8afd964674525c3ac",
	"fig5":                   "22842749c7feb068905aaf59714f6dc29c32a9605106ce74ac360bff5a2dd325",
	"fig6":                   "7cf5c3693de9f60684cb7d59cd7582537473c9666ee4245cffd343b305786910",
	"fig7":                   "9881b2f6f954450e44f52914e59fcfa2701abbfdd58576f67069271cf7136684",
	"fig8":                   "6ae3ac6ae7fc6c4c7214207efcf0ffa41874e0e50a941f7431313bcd726627a1",
	"xablations":             "2f8ec71a3585f8e70b9dbc8c2393711d562fd99f8e5e45b31d8214ded4219d74",
	"xstragglers":            "d12efd5b549d09f3bc157d4a14de4e3f31c14a657eadd896b807db8f3195fbdf",
	"scenario-base":          "b2fb4123abd554cf3f87bfc11d02b3859f811b419c037e15665914ee338140b8",
	"scenario-weibull-field": "16a2447b103c3910a08ffa7b8f0f54cb527e0faa2fe1d5d50f7ae431f96e5c79",
}

var digestOpts = runner.Options{Replications: 2, Warmup: 20, Measure: 100, Seed: 7}

func figureDigest(t *testing.T, fig *Figure) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, fig); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestFigureDigestsPinned runs every grid figure — the twelve paper
// figures, the two grid extras and the catalog scenario sweep — at small
// fixed options and compares its rendered bytes against the recorded
// digests.
func TestFigureDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests cover float bits; other architectures may fuse
		// multiply-adds and round differently.
		t.Skipf("figure digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs every grid figure")
	}
	run := func(id string) (*Figure, error) {
		if name, ok := strings.CutPrefix(id, "scenario-"); ok {
			s, err := scenario.Builtin().Get(name)
			if err != nil {
				return nil, err
			}
			return ScenarioDef(s).Run(digestOpts)
		}
		def, err := LookupAny(id)
		if err != nil {
			return nil, err
		}
		return def.Run(digestOpts)
	}
	for id, want := range figureDigests {
		t.Run(id, func(t *testing.T) {
			fig, err := run(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := figureDigest(t, fig); got != want {
				t.Errorf("digest %s, recorded %s", got, want)
			}
		})
	}
}

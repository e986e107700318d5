package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// The comparison pins: sha256 digests of the A/B comparison's command-line
// output on four catalog pairs, and of runner.Compare's full results with
// the CRN sync audit off and on. They were recorded while Compare still
// ran its own pair loop beside the estimate path and the output came from
// a separate cccompare command (`cccompare -a A -b B`), so running both
// legs through the estimate path and printing them from `ccsim -compare`
// left every digest unchanged.

// comparePins are the catalog pairs, whether the command prints the CRN
// sync audit, and the digest of its stdout.
var comparePins = []struct {
	a, b   string
	sync   bool
	stdout string
}{
	{"base", "migration", false, "e3af9c1ef015ef9ac5d1355426b57babdb78823e58e1fadbc975394479556115"},
	{"error-propagation", "base", true, "02bdcb6f3cb34a1fb8f3997add68339cf3bf88c6e12d85cf69b653022659c44a"},
	{"base", "adaptive-interval", true, "c48b475b5e08f687990c6a3babcc06c55c4b42a8e581d4f519a82d0eb3bec2fc"},
	{"timeout", "max-of-n", false, "d9e348e43f6ebc0d94cef8e3aa0cf493dbf2731cfa9fc869a40a5024e6215e5b"},
}

// compareResultPins digest runner.Compare over every pair of comparePins,
// keyed by SyncReport; every Workers value must reproduce them.
var compareResultPins = map[bool]string{
	false: "f16ee4baba958269c2fe72fa6b84dc36cdb5196d743ef2861675b91649511451",
	true:  "745715be1f0a04ecd5982cff680c05c7ebea2972c245320d86bb128b03cd52cb",
}

// compareWindows are the replication count, windows and seed of every pin.
var compareWindows = []string{"-reps", "4", "-warmup", "100", "-measure", "800", "-seed", "3"}

// compareCommand is the command line that compares scenario a against b.
func compareCommand(bin, a, b string, sync bool) (string, []string) {
	args := append([]string{"-scenario", a, "-compare", b, "-workers", "1"}, compareWindows...)
	if sync {
		args = append(args, "-sync-report")
	}
	return filepath.Join(bin, "ccsim"), args
}

func TestCompareOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command-line tools")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/ccsim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, p := range comparePins {
		exe, args := compareCommand(bin, p.a, p.b, p.sync)
		checkDigest(t, p.a+" vs "+p.b+" stdout", runTool(t, exe, args...), p.stdout)
	}
}

func TestCompareResultsPinned(t *testing.T) {
	reg, err := scenario.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	config := func(name string) Config {
		s, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.ClusterConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, sync := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			h := sha256.New()
			for _, p := range comparePins {
				c, err := runner.Compare(config(p.a), config(p.b), runner.Options{
					Replications: 4, Warmup: 100, Measure: 800, Seed: 3,
					Workers: workers, SyncReport: sync,
				})
				if err != nil {
					t.Fatal(err)
				}
				// %#v bypasses the rounding String methods of the intervals
				// and metrics, so every float is digested at full precision.
				fmt.Fprintf(h, "%#v\n%#v\n%#v\n%#v\n", c.A, c.B, c.FractionDiff, c.TotalDiff)
				if c.Sync != nil {
					fmt.Fprintf(h, "%#v\n", *c.Sync)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != compareResultPins[sync] {
				t.Errorf("SyncReport %v, Workers %d: results sha256 %s, pinned %s", sync, workers, got, compareResultPins[sync])
			}
		}
	}
}

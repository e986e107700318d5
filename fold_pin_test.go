package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The replication-fold pins: sha256 digests of what the command-line
// tools print and journal for a small plain and antithetic sweep, run
// monolithically and through a sharded run directory, plus ccsim's
// antithetic report. They were recorded before the plain/paired fold was
// moved behind one function, so any drift in pairing, summation order,
// ci_half_width rewriting or manifest encoding shows up here — even where
// the monolithic and the reduced path would drift together and the
// crash-resume identity test could not tell.
//
// Journals are digested with obs.TimestampFields blanked, the only fields
// the engine does not promise to reproduce.

// foldSweep is the sweep every ccsweep pin runs.
var foldSweep = []string{"-param", "procs", "-values", "8192,16384", "-reps", "8",
	"-warmup", "10", "-measure", "120", "-seed", "7", "-workers", "1"}

// foldMonoPins digest the monolithic table and journal.
var foldMonoPins = []struct {
	name           string
	args           []string
	table, journal string
}{
	{"plain", nil,
		"c6a9e24e84d4848d41af8ec2a1f42390d2866420bf272a57172c8172a5a157f7",
		"6537be550eb92623de16177b4005428c3c356fa7948a7711f17b690d722e039e"},
	{"antithetic", []string{"-vr", "antithetic"},
		"e18d9db8ae6d6501ceb60b84038e502c8a71ad87a939b30c815449220d5786bc",
		"f29a96fa7e791025383cef928ddbb747ab0542ffbf95733be5ed4c7cec4908f8"},
}

// foldShardPins digest a sharded run of the monolithic sweep foldMonoPins
// names: the manifest hash ccsweep prints when planning, and one raw block
// journal (block 1, whose records carry block-local ci_half_width values
// that the reducer rewrites). The reduced table and journal must digest to
// the monolithic pins. The antithetic run at -block-size 4 holds two pairs
// per block, so its raw block carries a nonzero paired block-local width.
var foldShardPins = []struct {
	name, mono   string
	args         []string
	hash, block1 string
}{
	{"plain-bs2", "plain", []string{"-block-size", "2"},
		"sha256:b287708e1d812f9ebe1703780837db325992a16c5e1bd4a01a3173cc3537f19f",
		"17599dd0241df2d855e2e3c8d50c96649f97935acccf65e93f5811dd12478890"},
	{"antithetic-bs2", "antithetic", []string{"-vr", "antithetic", "-block-size", "2"},
		"sha256:280965b35e60d9c459113c99387a29b4eefa37c8439e7fafe32bdd726234461e",
		"9e5c568f1a2800c3608d8ea12b832965da36bfe5528aa1a9ff55709796e3b72a"},
	{"antithetic-bs4", "antithetic", []string{"-vr", "antithetic", "-block-size", "4"},
		"sha256:51832b0b48c1c5502f6b6b019d649ffc0bc3272c95b23cd7f01a9dfd1985fd46",
		"b7930f67694b8353d47d2ea26177c1fac36534dde910f9eaa861523dc02df682"},
}

// foldCcsimPin digests `ccsim -vr antithetic` stdout, variance-reduction
// line included.
const foldCcsimPin = "4b53112824dfc90363bb6ec973fc4e8ffd8da0fe62d76ec56f8fffbcde759bb8"

var foldCcsimArgs = []string{"-reps", "6", "-warmup", "10", "-measure", "120",
	"-procs", "8192", "-seed", "5", "-workers", "1", "-vr", "antithetic"}

func TestReplicationFoldPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command-line tools")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/ccsim", "./cmd/ccsweep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ccsweep := filepath.Join(bin, "ccsweep")
	dir := t.TempDir()

	for _, p := range foldMonoPins {
		journal := filepath.Join(dir, p.name+".jsonl")
		args := append(append(append([]string(nil), foldSweep...), p.args...), "-journal", journal)
		table := runTool(t, ccsweep, args...)
		checkDigest(t, p.name+" table", table, p.table)
		checkDigest(t, p.name+" journal", readJournalStripped(t, journal), p.journal)
	}

	mono := make(map[string]int)
	for i, p := range foldMonoPins {
		mono[p.name] = i
	}
	hashLine := regexp.MustCompile(`(?m)^manifest (sha256:[0-9a-f]+)$`)
	for _, p := range foldShardPins {
		run := filepath.Join(dir, p.name)
		planned := runTool(t, ccsweep, append(append(append([]string(nil), foldSweep...), p.args...), "-manifest", run)...)
		m := hashLine.FindStringSubmatch(planned)
		if m == nil {
			t.Fatalf("%s: no manifest hash in planner output:\n%s", p.name, planned)
		}
		if m[1] != p.hash {
			t.Errorf("%s manifest hash = %s, pinned %s", p.name, m[1], p.hash)
		}
		runTool(t, ccsweep, "-worker", run, "-worker-name", "pin", "-workers", "1", "-heartbeat-every", "-1s")
		journal := filepath.Join(dir, p.name+"-reduced.jsonl")
		table := runTool(t, ccsweep, "-reduce", run, "-journal", journal)
		want := foldMonoPins[mono[p.mono]]
		checkDigest(t, p.name+" reduced table", table, want.table)
		checkDigest(t, p.name+" reduced journal", readJournalStripped(t, journal), want.journal)
		checkDigest(t, p.name+" block 1 journal",
			readJournalStripped(t, filepath.Join(run, "journals", "block-00001.jsonl")), p.block1)
	}

	out := runTool(t, filepath.Join(bin, "ccsim"), foldCcsimArgs...)
	if !strings.Contains(out, "variance reduction") {
		t.Errorf("ccsim -vr antithetic printed no variance-reduction line:\n%s", out)
	}
	checkDigest(t, "ccsim antithetic stdout", out, foldCcsimPin)
}

// runTool runs a built command and returns its stdout.
func runTool(t *testing.T, exe string, args ...string) string {
	t.Helper()
	cmd := exec.Command(exe, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(exe), strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// readJournalStripped loads a journal with the obs.TimestampFields values
// blanked.
func readJournalStripped(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, f := range obs.TimestampFields {
		re := regexp.MustCompile(`"` + f + `":("[^"]*"|[0-9.e+-]+)`)
		s = re.ReplaceAllString(s, `"`+f+`":X`)
	}
	return s
}

func checkDigest(t *testing.T, what, content, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(content))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: sha256 %s, pinned %s", what, got, want)
	}
}

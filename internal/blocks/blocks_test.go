package blocks

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// testPlan builds a small two-cell plan with a synthetic configuration.
func testPlan(t testing.TB, blockSize int) *Manifest {
	t.Helper()
	cfg := cluster.Default()
	m, err := Plan([]Cell{
		{Label: "a=1", X: 1, Seed: 11, Replications: 3, Config: cfg},
		{Label: "a=2", X: 2, Seed: 12, Replications: 4, Config: cfg},
	}, PlanOptions{Name: "a", BlockSize: blockSize, Warmup: 10, Measure: 50})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// synthRun is a deterministic, simulation-free RunFunc: every record is a
// pure function of the pre-assigned seed, which is all the engine itself
// guarantees about real runs.
func synthRun(ctx context.Context, m *Manifest, b Block) (BlockOutput, error) {
	out := BlockOutput{}
	for i, seed := range b.Seeds {
		out.Events += seed % 97
		out.Records = append(out.Records, Record{Kind: "replication", Fields: map[string]any{
			"rep":             b.RepStart + i,
			"seed":            seed,
			"useful_fraction": float64(seed%1000) / 1000,
			"total_useful":    float64(seed % 5000),
			"label":           m.Cells[b.CellIndex].Label,
		}})
	}
	return out, nil
}

func TestPlanPartitionsAndSeeds(t *testing.T) {
	m := testPlan(t, 2)
	// 3 reps @ size 2 → blocks of 2+1; 4 reps → 2+2.
	if len(m.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(m.Blocks))
	}
	// The flattened block seeds must be exactly the monolithic derivation.
	for ci, c := range m.Cells {
		var got []uint64
		for _, b := range m.Blocks {
			if b.CellIndex == ci {
				got = append(got, b.Seeds...)
			}
		}
		want := ReplicationSeeds(c.Seed, c.Replications)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cell %d seeds %v, want %v", ci, got, want)
		}
	}
	if !strings.HasPrefix(m.Hash, "sha256:") {
		t.Fatalf("hash %q not content-addressed", m.Hash)
	}
}

func TestManifestRoundTripAndTamper(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 2)
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	// Idempotent for the identical plan.
	if err := CreateRun(dir, m); err != nil {
		t.Fatalf("re-creating identical run: %v", err)
	}
	loaded, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash != m.Hash {
		t.Fatalf("round-trip hash %s != %s", loaded.Hash, m.Hash)
	}
	// A different plan must be refused.
	other := testPlan(t, 1)
	if err := CreateRun(dir, other); err == nil {
		t.Fatal("creating a different plan over an existing run succeeded")
	}
	// A tampered manifest must fail validation on load.
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"a=1"`), []byte(`"a=9"`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(ManifestPath(dir), tampered, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("tampered manifest loaded: %v", err)
	}
}

func TestLeaseClaimHeldReclaim(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 2)
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	res, err := claim(dir, m, 0, "w1", time.Minute, now)
	if err != nil || res != claimWon {
		t.Fatalf("first claim: %v, %v", res, err)
	}
	// A live lease blocks other workers.
	res, err = claim(dir, m, 0, "w2", time.Minute, now)
	if err != nil || res != claimHeld {
		t.Fatalf("second claim: %v, %v", res, err)
	}
	// Once expired, another worker reclaims it.
	res, err = claim(dir, m, 0, "w2", time.Minute, now.Add(2*time.Minute))
	if err != nil || res != claimReclaimed {
		t.Fatalf("reclaim: %v, %v", res, err)
	}
	l, err := readLease(LeasePath(dir, 0))
	if err != nil || l.Worker != "w2" {
		t.Fatalf("lease after reclaim: %+v, %v", l, err)
	}
	// Release drops it; a fresh claim wins again.
	if err := release(dir, 0); err != nil {
		t.Fatal(err)
	}
	if res, err = claim(dir, m, 0, "w3", time.Minute, now); err != nil || res != claimWon {
		t.Fatalf("claim after release: %v, %v", res, err)
	}
}

// TestHeldClaimWritesNothing: a claim that finds an unexpired lease of its
// own run settles on reading it. It returns claimHeld and writes nothing
// in the lease directory: no temp file is left, and the directory's
// mtime — set into the past first, so any create or remove bumps it — is
// unchanged.
func TestHeldClaimWritesNothing(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 2)
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if res, err := claim(dir, m, 0, "w1", time.Minute, now); err != nil || res != claimWon {
		t.Fatalf("first claim: %v, %v", res, err)
	}
	leases := filepath.Dir(LeasePath(dir, 0))
	past := now.Add(-time.Hour)
	if err := os.Chtimes(leases, past, past); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(leases)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := claim(dir, m, 0, "w2", time.Minute, now); err != nil || res != claimHeld {
		t.Fatalf("held claim: %v, %v", res, err)
	}
	after, err := os.Stat(leases)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("held claim modified the lease directory: mtime %v → %v", before.ModTime(), after.ModTime())
	}
	entries, err := os.ReadDir(leases)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("held claim left %s", e.Name())
		}
	}
}

func TestTornJournalIsIncompleteNotFatal(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 2)
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	b := m.Blocks[0]
	out, err := synthRun(context.Background(), m, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBlockJournal(dir, m, b, out, "w1", 1.5); err != nil {
		t.Fatal(err)
	}
	if !BlockComplete(dir, m, b) {
		t.Fatal("committed journal not complete")
	}
	// Tear the final line mid-bytes, as a killed writer (or power loss
	// under the rename) leaves it.
	data, err := os.ReadFile(JournalPath(dir, b.ID))
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(JournalPath(dir, b.ID), torn, 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadBlockJournal(dir, m, b)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("torn journal error = %v, want ErrIncomplete", err)
	}
	// Reduce reports it as incomplete work, not a parse failure.
	if _, err := ReduceManifest(dir, m); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("reduce over torn journal = %v, want ErrIncomplete", err)
	}
	// Resume drops the torn file so the block re-runs.
	rep, _, err := Resume(dir, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TornJournals) != 1 || rep.TornJournals[0] != b.ID {
		t.Fatalf("resume torn = %v, want [%d]", rep.TornJournals, b.ID)
	}
	if _, statErr := os.Stat(JournalPath(dir, b.ID)); !os.IsNotExist(statErr) {
		t.Fatal("torn journal not removed by Resume")
	}
}

func TestWrongManifestJournalIsFatal(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	mA := testPlan(t, 2)
	other, err := Plan([]Cell{{Label: "b=1", X: 1, Seed: 99, Replications: 3, Config: cluster.Default()}},
		PlanOptions{Name: "b", BlockSize: 2, Warmup: 10, Measure: 50})
	if err != nil {
		t.Fatal(err)
	}
	for dir, m := range map[string]*Manifest{dirA: mA, dirB: other} {
		if err := CreateRun(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	out, err := synthRun(context.Background(), other, other.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBlockJournal(dirB, other, other.Blocks[0], out, "w1", 1); err != nil {
		t.Fatal(err)
	}
	// Copy the foreign journal into run A under block 0's name.
	data, err := os.ReadFile(JournalPath(dirB, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dirA, 0), data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadBlockJournal(dirA, mA, mA.Blocks[0])
	if err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("foreign journal error = %v, want hard error", err)
	}
}

// TestWorkersBitIdentical is the in-process half of the determinism
// contract: one worker, three racing workers, and a crash-interrupted
// directory repaired by Resume must all reduce to byte-identical merged
// journals (timestamp fields aside).
func TestWorkersBitIdentical(t *testing.T) {
	reduced := func(t *testing.T, dir string) string {
		t.Helper()
		m, cells, err := Reduce(dir)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteReduced(obs.NewJournal(&buf), m, cells); err != nil {
			t.Fatal(err)
		}
		return stripWallClock(buf.String())
	}

	// Reference: a single worker.
	dir1 := t.TempDir()
	if err := CreateRun(dir1, testPlan(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Work(context.Background(), dir1, synthRun, WorkerOptions{Name: "solo"}); err != nil {
		t.Fatal(err)
	}
	want := reduced(t, dir1)

	// Three concurrent workers racing over the same directory.
	dir3 := t.TempDir()
	if err := CreateRun(dir3, testPlan(t, 2)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = Work(context.Background(), dir3, synthRun, WorkerOptions{Name: fmt.Sprintf("w%d", w)})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := reduced(t, dir3); got != want {
		t.Fatalf("3-worker reduced journal differs from solo run:\n got:\n%s\nwant:\n%s", got, want)
	}

	// A "crashed" run: one block's journal torn, one block never run, an
	// expired lease left behind — Resume then a fresh worker must converge
	// to the same bytes.
	dirC := t.TempDir()
	mC := testPlan(t, 2)
	if err := CreateRun(dirC, mC); err != nil {
		t.Fatal(err)
	}
	for _, b := range mC.Blocks[:2] {
		out, err := synthRun(context.Background(), mC, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeBlockJournal(dirC, mC, b, out, "victim", 1); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(JournalPath(dirC, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dirC, 1), data[:len(data)-11], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := claim(dirC, mC, 2, "victim", time.Nanosecond, time.Now().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(dirC, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := Work(context.Background(), dirC, synthRun, WorkerOptions{Name: "rescuer"}); err != nil {
		t.Fatal(err)
	}
	if got := reduced(t, dirC); got != want {
		t.Fatalf("crash-resumed reduced journal differs from solo run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestReduceReportsMissingBlocks(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 2)
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Work(context.Background(), dir, synthRun, WorkerOptions{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(JournalPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	_, err := ReduceManifest(dir, m)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("reduce = %v, want ErrIncomplete", err)
	}
	if !strings.Contains(err.Error(), "[2]") {
		t.Fatalf("error %q does not name the missing block", err)
	}
}

func TestWorkTelemetryAndStatus(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 1) // 7 blocks of one rep each
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sum, err := Work(context.Background(), dir, synthRun, WorkerOptions{Name: "w", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != len(m.Blocks) {
		t.Fatalf("completed %d, want %d", sum.Completed, len(m.Blocks))
	}
	s := reg.Snapshot()
	if got := s.Counters["blocks.planned"]; got != uint64(len(m.Blocks)) {
		t.Fatalf("blocks.planned = %d, want %d", got, len(m.Blocks))
	}
	if got := s.Counters["blocks.completed"]; got != uint64(len(m.Blocks)) {
		t.Fatalf("blocks.completed = %d, want %d", got, len(m.Blocks))
	}
	if got := s.Counters["blocks.claimed"]; got != uint64(len(m.Blocks)) {
		t.Fatalf("blocks.claimed = %d, want %d", got, len(m.Blocks))
	}
	if hist, ok := s.Timers["blocks.block_wall_s"]; !ok || hist.Count != uint64(len(m.Blocks)) {
		t.Fatalf("blocks.block_wall_s count = %+v, want %d observations", hist, len(m.Blocks))
	}
	mLoaded, st, err := Scan(dir, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() || st.Complete != len(m.Blocks) {
		t.Fatalf("status %+v not complete", st)
	}
	var buf bytes.Buffer
	if err := WriteStatus(&buf, mLoaded, st); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"complete — ready to -reduce", "worker  w"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("status output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkSummaryMatchesTrailers: Work counts the events and observes the
// wall time of each block it commits from the values it wrote into the
// block's trailer, so Summary.Events is the sum of the committed trailers'
// events and blocks.block_wall_s holds exactly their wall_ms.
func TestWorkSummaryMatchesTrailers(t *testing.T) {
	dir := t.TempDir()
	m := testPlan(t, 2)
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sum, err := Work(context.Background(), dir, synthRun, WorkerOptions{Name: "w", Metrics: reg, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	want := obs.NewRegistry().Timer("blocks.block_wall_s")
	for _, b := range m.Blocks { // one worker commits blocks in plan order
		_, tr, err := ReadBlockJournal(dir, m, b)
		if err != nil {
			t.Fatal(err)
		}
		events += tr.Events
		want.Observe(time.Duration(tr.WallMS * float64(time.Millisecond)))
	}
	if events == 0 || sum.Events != events {
		t.Errorf("Summary.Events = %d, committed trailers hold %d", sum.Events, events)
	}
	if got := reg.Snapshot().Timers["blocks.block_wall_s"]; !reflect.DeepEqual(got, want.Snapshot()) {
		t.Errorf("blocks.block_wall_s = %+v, trailers give %+v", got, want.Snapshot())
	}
}

// stripWallClock blanks the values of obs.TimestampFields so journal
// comparisons pin everything except wall-clock noise.
func stripWallClock(s string) string {
	for _, f := range obs.TimestampFields {
		re := regexp.MustCompile(`"` + f + `":("[^"]*"|[0-9.e+-]+)`)
		s = re.ReplaceAllString(s, `"`+f+`":X`)
	}
	return s
}

// TestWorkRunsEveryBlockExactlyOnce races two Work loops over many fast
// one-replication blocks. A loop that found a block incomplete can lose
// the race to a peer that commits and releases it before the claim; the
// claim must then see the committed journal and skip the block instead of
// running it a second time.
func TestWorkRunsEveryBlockExactlyOnce(t *testing.T) {
	cells := make([]Cell, 4)
	for i := range cells {
		cells[i] = Cell{Label: fmt.Sprintf("a=%d", i), X: float64(i), Seed: uint64(20 + i), Replications: 60, Config: cluster.Default()}
	}
	m, err := Plan(cells, PlanOptions{Name: "a", BlockSize: 1, Warmup: 10, Measure: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Blocks) < 200 {
		t.Fatalf("plan has %d blocks, want at least 200", len(m.Blocks))
	}
	dir := t.TempDir()
	if err := CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	runs := make([]atomic.Int32, len(m.Blocks))
	counted := func(ctx context.Context, m *Manifest, b Block) (BlockOutput, error) {
		runs[b.ID].Add(1)
		return synthRun(ctx, m, b)
	}
	var wg sync.WaitGroup
	sums := make([]Summary, 2)
	errs := make([]error, 2)
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w], errs[w] = Work(context.Background(), dir, counted, WorkerOptions{
				Name: fmt.Sprintf("w%d", w), Poll: time.Millisecond,
			})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := range runs {
		if n := runs[id].Load(); n != 1 {
			t.Errorf("block %d ran %d times", id, n)
		}
	}
	if got := sums[0].Completed + sums[1].Completed; got != len(m.Blocks) {
		t.Errorf("workers completed %d blocks, planned %d", got, len(m.Blocks))
	}
}

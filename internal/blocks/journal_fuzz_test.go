package blocks

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// committedJournal plans the two-cell test sweep, writes block 0's journal
// with the real writer and returns the manifest, the block and the
// committed bytes.
func committedJournal(t testing.TB) (*Manifest, Block, []byte) {
	t.Helper()
	m := testPlan(t, 2)
	b := m.Blocks[0]
	out, err := synthRun(context.Background(), m, b)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Dir(JournalPath(dir, b.ID)), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := writeBlockJournal(dir, m, b, out, "w1", 1.5); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(JournalPath(dir, b.ID))
	if err != nil {
		t.Fatal(err)
	}
	return m, b, data
}

// readJournalBytes stores data as block b's journal in a fresh run
// directory and reads it back.
func readJournalBytes(t *testing.T, m *Manifest, b Block, data []byte) ([]Record, *Trailer, error) {
	t.Helper()
	dir := t.TempDir()
	path := JournalPath(dir, b.ID)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return ReadBlockJournal(dir, m, b)
}

// TestEveryJournalPrefixIsIncomplete: a journal cut anywhere before its
// end, as a crashed writer or a torn rename leaves it, means "re-run the
// block", never a hard error and never a commit. Only the cut that drops
// nothing but trailing whitespace still commits.
func TestEveryJournalPrefixIsIncomplete(t *testing.T) {
	m, b, data := committedJournal(t)
	if _, _, err := readJournalBytes(t, m, b, data); err != nil {
		t.Fatalf("committed journal: %v", err)
	}
	whole := len(bytes.TrimRight(data, " \t\r\n"))
	for n := range len(data) {
		_, _, err := readJournalBytes(t, m, b, data[:n])
		if n >= whole {
			if err != nil {
				t.Errorf("prefix of %d/%d bytes (whitespace dropped): %v", n, len(data), err)
			}
			continue
		}
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("prefix of %d/%d bytes: err %v, want ErrIncomplete", n, len(data), err)
		}
	}
}

// FuzzReadBlockJournal: no journal content panics the reader, and whatever
// it accepts carries a trailer naming this manifest and block and exactly
// the block's replication records.
func FuzzReadBlockJournal(f *testing.F) {
	m, b, data := committedJournal(f)
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 3, len(data) / 2, len(data) - 7, len(data) - 1} {
		f.Add(data[:n])
	}
	f.Add([]byte("not json\n"))
	f.Add([]byte("{}\n{\"kind\":\"block_done\"}\n"))
	f.Add([]byte("{\"kind\":\"block_done\",\"block\":-1,\"replications\":1e99}\n"))
	f.Add(append(append([]byte("\x00\xff{{\n"), data...), "\n\n"...))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, tr, err := readJournalBytes(t, m, b, in)
		if err != nil {
			return
		}
		if tr == nil || tr.ManifestHash != m.Hash || tr.Block != b.ID || tr.Cell != b.CellIndex ||
			tr.RepStart != b.RepStart || tr.Replications != b.Reps() {
			t.Fatalf("accepted journal with trailer %+v for block %+v of manifest %s", tr, b, m.Hash)
		}
		if len(recs) != b.Reps() {
			t.Fatalf("accepted journal with %d records, block has %d replications", len(recs), b.Reps())
		}
	})
}

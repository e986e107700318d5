package blocks

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// BlockState classifies one block during a Scan.
type BlockState string

const (
	// StateComplete: a committed journal exists.
	StateComplete BlockState = "complete"
	// StateTorn: a journal file exists but did not commit (crashed writer).
	StateTorn BlockState = "torn"
	// StateLeased: an unexpired lease holds the block.
	StateLeased BlockState = "leased"
	// StateExpired: the only claim is a lapsed lease — reclaimable.
	StateExpired BlockState = "expired"
	// StateUnclaimed: no journal, no lease.
	StateUnclaimed BlockState = "unclaimed"
)

// BlockInfo is one block's scan line. State is single-valued: every block
// is in exactly one state, so the Status counters partition the plan.
type BlockInfo struct {
	Block int        `json:"block"`
	Cell  int        `json:"cell"`
	Reps  int        `json:"reps"`
	State BlockState `json:"state"`
	// Worker names the journal's committer (complete) or the lease holder
	// (leased/expired).
	Worker string `json:"worker,omitempty"`
	// WallMS is the committed block's wall time.
	WallMS float64 `json:"wall_ms,omitempty"`
	// ExpiresIn is the lease's remaining validity (negative once lapsed).
	ExpiresIn time.Duration `json:"-"`
	// TornJournal annotates a torn journal file regardless of State: a
	// torn block that a live lease is re-running classifies as leased, and
	// this flag is how the scan still reports the torn file underneath.
	TornJournal bool `json:"torn_journal,omitempty"`
	// Trailer is the committed journal's trailer (complete blocks) and
	// Lease the claim behind a leased or expired state, for the timeline.
	Trailer *Trailer `json:"-"`
	Lease   *Lease   `json:"-"`
}

// WorkerStats aggregates one worker's committed blocks.
type WorkerStats struct {
	Worker    string  `json:"worker"`
	Completed int     `json:"completed"`
	Events    uint64  `json:"events"`
	WallMS    float64 `json:"wall_ms"`
}

// Status summarises a run directory at one instant. The five state
// counters are a partition: Complete+Torn+Leased+Expired+Unclaimed ==
// Planned always (a block with both a torn journal and a lease counts
// once, under the state Scan resolves for it).
type Status struct {
	Planned, Complete, Torn, Leased, Expired, Unclaimed int
	// Events sums the committed blocks' event counts.
	Events uint64
	// WallMS sums the committed blocks' wall times (total compute spent).
	WallMS float64
	// Blocks lists every block in manifest order.
	Blocks []BlockInfo
	// Workers aggregates committed blocks per worker, sorted by name.
	Workers []WorkerStats
}

// Done reports whether every planned block has a committed journal.
func (s Status) Done() bool { return s.Complete == s.Planned }

// Scan inspects a run directory without modifying it: which blocks are
// committed, torn, leased, expired, or untouched, plus per-worker totals.
// It backs the -status verb and is safe to run beside active workers.
func Scan(dir string, now time.Time) (*Manifest, Status, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, Status{}, err
	}
	st := Status{Planned: len(m.Blocks)}
	byWorker := map[string]*WorkerStats{}
	for _, b := range m.Blocks {
		info := BlockInfo{Block: b.ID, Cell: b.CellIndex, Reps: b.Reps()}
		_, tr, jerr := ReadBlockJournal(dir, m, b)
		switch {
		case jerr == nil:
			info.State = StateComplete
			info.Trailer = tr
			info.Worker = tr.Worker
			info.WallMS = tr.WallMS
			st.Complete++
			st.Events += tr.Events
			st.WallMS += tr.WallMS
			ws := byWorker[tr.Worker]
			if ws == nil {
				ws = &WorkerStats{Worker: tr.Worker}
				byWorker[tr.Worker] = ws
			}
			ws.Completed++
			ws.Events += tr.Events
			ws.WallMS += tr.WallMS
		case errors.Is(jerr, ErrIncomplete):
			// Resolve ONE state per block. Precedence: a live lease means a
			// worker is (re-)running the block right now — even over a torn
			// journal, which the re-run's commit will replace; a torn
			// journal with no live claim needs -resume; an expired lease is
			// reclaimable; otherwise the block is untouched. The torn-file
			// fact is preserved in TornJournal either way.
			info.TornJournal = journalExists(dir, b.ID)
			l, lerr := readLease(LeasePath(dir, b.ID))
			if lerr == nil {
				info.Worker = l.Worker
				info.ExpiresIn = time.Duration(l.ExpiresUnixMS-now.UnixMilli()) * time.Millisecond
			}
			switch {
			case lerr == nil && !l.Expired(now):
				info.State = StateLeased
				info.Lease = &l
				st.Leased++
			case info.TornJournal:
				info.State = StateTorn
				st.Torn++
			case lerr == nil:
				info.State = StateExpired
				info.Lease = &l
				st.Expired++
			default:
				info.State = StateUnclaimed
				st.Unclaimed++
			}
		default:
			return nil, Status{}, jerr
		}
		st.Blocks = append(st.Blocks, info)
	}
	names := make([]string, 0, len(byWorker))
	for name := range byWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Workers = append(st.Workers, *byWorker[name])
	}
	return m, st, nil
}

// journalExists reports a journal file under the committed name,
// regardless of validity.
func journalExists(dir string, block int) bool {
	_, err := os.Stat(JournalPath(dir, block))
	return err == nil
}

// WriteStatus renders a Scan for terminals — the -status verb's output.
func WriteStatus(w io.Writer, m *Manifest, st Status) error {
	if _, err := fmt.Fprintf(w, "sweep %s  (%s, %d cells, %d blocks, hash %s)\n",
		m.Name, m.Kind, len(m.Cells), len(m.Blocks), shortHash(m.Hash)); err != nil {
		return err
	}
	fmt.Fprintf(w, "blocks  %d complete / %d planned", st.Complete, st.Planned)
	if st.Leased > 0 {
		fmt.Fprintf(w, "  |  %d leased", st.Leased)
	}
	if st.Expired > 0 {
		fmt.Fprintf(w, "  |  %d expired-lease", st.Expired)
	}
	if st.Torn > 0 {
		fmt.Fprintf(w, "  |  %d torn (run -resume)", st.Torn)
	}
	if st.Unclaimed > 0 {
		fmt.Fprintf(w, "  |  %d unclaimed", st.Unclaimed)
	}
	fmt.Fprintln(w)
	if st.Complete > 0 {
		fmt.Fprintf(w, "work    %d events, %.1f s wall across workers\n", st.Events, st.WallMS/1000)
	}
	for _, ws := range st.Workers {
		fmt.Fprintf(w, "worker  %-24s %4d blocks  %12d events  %8.1f s\n",
			ws.Worker, ws.Completed, ws.Events, ws.WallMS/1000)
	}
	for _, bi := range st.Blocks {
		if bi.State == StateLeased {
			fmt.Fprintf(w, "lease   block %d held by %s (expires in %v)\n",
				bi.Block, bi.Worker, bi.ExpiresIn.Round(time.Second))
		}
	}
	if st.Done() {
		fmt.Fprintln(w, "status  complete — ready to -reduce")
	} else {
		fmt.Fprintf(w, "status  in progress — %d blocks remaining\n", st.Planned-st.Complete)
	}
	return nil
}

// statusJSON is the machine-readable shape of a Scan — the -status -json
// output. Durations are exported as milliseconds so consumers need no
// Go-duration parsing.
type statusJSON struct {
	Name      string        `json:"name"`
	Kind      string        `json:"kind"`
	Hash      string        `json:"hash"`
	Cells     int           `json:"cells"`
	Planned   int           `json:"planned"`
	Complete  int           `json:"complete"`
	Torn      int           `json:"torn"`
	Leased    int           `json:"leased"`
	Expired   int           `json:"expired"`
	Unclaimed int           `json:"unclaimed"`
	Done      bool          `json:"done"`
	Events    uint64        `json:"events"`
	WallMS    float64       `json:"wall_ms"`
	Workers   []WorkerStats `json:"workers,omitempty"`
	Blocks    []blockJSON   `json:"blocks"`
}

type blockJSON struct {
	BlockInfo
	// ExpiresInMS flattens BlockInfo.ExpiresIn (negative once lapsed);
	// omitted for states without a lease.
	ExpiresInMS *int64 `json:"expires_in_ms,omitempty"`
}

// WriteStatusJSON renders a Scan as one indented JSON document — the
// machine-readable twin of WriteStatus, for scripts and dashboards.
func WriteStatusJSON(w io.Writer, m *Manifest, st Status) error {
	out := statusJSON{
		Name: m.Name, Kind: m.Kind, Hash: m.Hash, Cells: len(m.Cells),
		Planned: st.Planned, Complete: st.Complete, Torn: st.Torn,
		Leased: st.Leased, Expired: st.Expired, Unclaimed: st.Unclaimed,
		Done: st.Done(), Events: st.Events, WallMS: st.WallMS,
		Workers: st.Workers,
	}
	for _, bi := range st.Blocks {
		bj := blockJSON{BlockInfo: bi}
		if bi.State == StateLeased || bi.State == StateExpired || (bi.Worker != "" && bi.State != StateComplete) {
			ms := bi.ExpiresIn.Milliseconds()
			bj.ExpiresInMS = &ms
		}
		out.Blocks = append(out.Blocks, bj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// shortHash abbreviates a manifest hash for display.
func shortHash(h string) string {
	const prefix = "sha256:"
	if len(h) >= len(prefix)+12 {
		return h[:len(prefix)+12]
	}
	return h
}

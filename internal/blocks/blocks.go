// Package blocks is the distributed sweep engine: it partitions the
// (cell × replication) space of a sweep into fixed-size blocks with
// pre-assigned rng sub-stream seeds, persists the plan as a content-hashed
// JSON manifest in a shared run directory, lets any number of independent
// worker processes claim blocks through atomic lease files, journals each
// completed block as a self-contained JSONL file, and reduces the block
// journals in manifest order into merged estimates that are bit-identical
// to a single-process run.
//
// The design is the rollback-recovery discipline the simulator itself
// models, applied to the simulator: work is partitioned into journaled
// units committed to stable storage (write-temp + atomic rename), a crash
// loses at most the in-flight block, and a restarted or additional worker
// resumes from the journals alone. Determinism is structural, exactly as
// in internal/exec: every replication's seed is fixed in the manifest
// before any worker starts, blocks are self-contained, and the reducer
// folds results in manifest order — so which process ran a block, how many
// processes participated, and how often they crashed are all invisible in
// the reduced output.
//
// Durability contract. A commit (atomicWrite) fsyncs the file's data and
// then renames it into place; it does not fsync the directory. So:
//
//   - after a process crash (kill -9, OOM, panic) no committed block is
//     lost — the kernel still holds the rename;
//   - after a power loss or kernel crash a committed block may re-run,
//     because its rename can be lost with the directory's unflushed
//     metadata, and a journal whose tail the filesystem tore reads as
//     ErrIncomplete, which also re-runs the block;
//   - either way the reduce is never wrong: it reads only journals that
//     verify against the manifest and carry their commit trailer, and a
//     re-run block reproduces its records exactly (only timestamps and
//     wall times differ).
package blocks

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/rng"
	"repro/internal/vr"
)

// Manifest kinds: what a block's replications compute.
const (
	// KindEstimate blocks run steady-state replications (runner.Estimate):
	// warmup + measurement window, per-replication useful-work metrics.
	KindEstimate = "estimate"
	// KindCompletion blocks run job completion-time replications
	// (cyclesim.CompletionRun): simulate until the job's work is done.
	KindCompletion = "completion"
)

// Cell is one estimate of a sweep: a configuration plus the replication
// spec that would feed a single runner.Estimate call.
type Cell struct {
	// Label tags the cell's journal records, e.g. "procs=65536".
	Label string `json:"label"`
	// X is the cell's sweep-axis value, carried for table rendering.
	X float64 `json:"x,omitempty"`
	// Seed is the cell's root seed; replication r uses sub-stream
	// ReplicationSeeds(Seed, Replications)[r], the same derivation
	// runner.Estimate uses, which is what makes block-sharded results
	// bit-identical to monolithic ones.
	Seed uint64 `json:"seed"`
	// Replications is the cell's total replication count across blocks.
	Replications int `json:"replications"`
	// Config is the model configuration (plain exported scalars, so the
	// JSON round-trip through the manifest is exact).
	Config cluster.Config `json:"config"`
}

// Block is the unit of claiming: a contiguous run of one cell's
// replications with their pre-assigned seeds.
type Block struct {
	// ID is the block's index in Manifest.Blocks (and its file names).
	ID int `json:"id"`
	// CellIndex says which manifest cell the block belongs to.
	CellIndex int `json:"cell"`
	// RepStart is the cell-local index of the block's first replication.
	RepStart int `json:"rep_start"`
	// Seeds holds one sub-stream seed per replication in the block.
	Seeds []uint64 `json:"seeds"`
}

// Reps returns the number of replications in the block.
func (b Block) Reps() int { return len(b.Seeds) }

// Manifest is the complete, self-contained plan of a sweep. It is a pure
// function of the plan inputs — no timestamps, no host names — so the same
// sweep always hashes to the same manifest and a worker can verify it is
// joining the run it was pointed at.
type Manifest struct {
	// Version is the manifest schema version.
	Version int `json:"version"`
	// Kind selects the replication semantics (KindEstimate, KindCompletion).
	Kind string `json:"kind"`
	// Name names the sweep; ccsweep stores the swept parameter here.
	Name string `json:"name"`
	// Warmup and Measure are the per-replication windows in hours
	// (KindEstimate).
	Warmup  float64 `json:"warmup,omitempty"`
	Measure float64 `json:"measure,omitempty"`
	// Work is the job's useful-work requirement in hours (KindCompletion).
	Work float64 `json:"work,omitempty"`
	// Confidence is the CI level of the reduced intervals.
	Confidence float64 `json:"confidence"`
	// ValueKey names the per-replication journal field the block journals
	// track convergence of ("useful_fraction", "wall_hours").
	ValueKey string `json:"value_key"`
	// VR is the variance-reduction mode of the plan: how its replications
	// pair up. Under vr.ModeAntithetic replications 2k and 2k+1 share seed
	// k and differ only in stream reflection; assigning the pairs here, in
	// planning, is what keeps block-sharded antithetic sweeps bit-identical
	// to monolithic runs at any worker count. Omitted when plain (and
	// spelled "antithetic" otherwise, see vr.Mode.MarshalText), so pre-VR
	// manifests keep their content hashes.
	VR vr.Mode `json:"vr,omitempty"`
	// BlockSize is the maximum replications per block.
	BlockSize int `json:"block_size"`
	// Cells and Blocks are the planned space, in reduction order.
	Cells  []Cell  `json:"cells"`
	Blocks []Block `json:"blocks"`
	// Hash is "sha256:<hex>" over the manifest with Hash itself blank —
	// the run's content address, stamped into every lease and block
	// journal so mixed-up run directories fail loudly.
	Hash string `json:"hash"`
	// Provenance records who planned the run (binary commit, platform,
	// host), stamped by CreateRun at write time. Like Hash it is excluded
	// from the content hash: the same sweep planned from any commit still
	// hashes identically, so re-planning after a rebuild stays a no-op —
	// the stamp is an observation about the plan, not part of it.
	Provenance *provenance.Stamp `json:"provenance,omitempty"`
}

// PlanOptions parameterises Plan.
type PlanOptions struct {
	Name       string
	Kind       string  // default KindEstimate
	Warmup     float64 // hours (KindEstimate)
	Measure    float64 // hours (KindEstimate)
	Work       float64 // hours (KindCompletion)
	Confidence float64 // default 0.95
	ValueKey   string  // default by kind
	BlockSize  int     // replications per block; default 1
	VR         vr.Mode // variance-reduction mode; default vr.ModeNone
}

// ReplicationSeeds derives one independent sub-stream seed per replication
// from a root seed: the first n outputs of the root stream. This is the
// derivation runner.Estimate and cyclesim.JobCompletion use, lifted here so
// the planner pre-assigns exactly the seeds a monolithic run would draw.
func ReplicationSeeds(seed uint64, n int) []uint64 {
	root := rng.New(seed)
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = root.Uint64()
	}
	return seeds
}

// PairedReplicationSeeds derives the seed schedule of n replications run as
// antithetic pairs: n/2 root draws, each assigned to two consecutive
// replications — the plain leg at even global index 2k, the reflected leg
// at 2k+1. n must be even (Plan enforces this per cell).
func PairedReplicationSeeds(seed uint64, n int) []uint64 {
	half := ReplicationSeeds(seed, n/2)
	seeds := make([]uint64, 0, n)
	for _, s := range half {
		seeds = append(seeds, s, s)
	}
	return seeds
}

// Plan partitions the cells' replication space into blocks of at most
// o.BlockSize replications and returns the content-hashed manifest.
func Plan(cells []Cell, o PlanOptions) (*Manifest, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("blocks: plan has no cells")
	}
	if o.Kind == "" {
		o.Kind = KindEstimate
	}
	if o.Kind != KindEstimate && o.Kind != KindCompletion {
		return nil, fmt.Errorf("blocks: unknown manifest kind %q", o.Kind)
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.ValueKey == "" {
		if o.Kind == KindCompletion {
			o.ValueKey = "wall_hours"
		} else {
			o.ValueKey = "useful_fraction"
		}
	}
	if o.BlockSize == 0 {
		o.BlockSize = 1
	}
	if o.BlockSize < 1 {
		return nil, fmt.Errorf("blocks: block size %d < 1", o.BlockSize)
	}
	if err := checkVR(o.Kind, o.VR); err != nil {
		return nil, err
	}
	if o.VR == vr.ModeAntithetic && o.BlockSize%2 == 1 {
		// A block boundary must never split a (plain, reflected) pair: the
		// pair is the statistical unit, and keeping both legs in one block
		// keeps every block journal self-contained. Round an odd block size
		// up rather than erroring so the default of 1 keeps working.
		o.BlockSize++
	}
	m := &Manifest{
		Version:    1,
		Kind:       o.Kind,
		Name:       o.Name,
		Warmup:     o.Warmup,
		Measure:    o.Measure,
		Work:       o.Work,
		Confidence: o.Confidence,
		ValueKey:   o.ValueKey,
		BlockSize:  o.BlockSize,
		VR:         o.VR,
		Cells:      cells,
	}
	for ci, c := range cells {
		if c.Replications < 1 {
			return nil, fmt.Errorf("blocks: cell %d (%s) has %d replications", ci, c.Label, c.Replications)
		}
		if err := c.Config.Validate(); err != nil {
			return nil, fmt.Errorf("blocks: cell %d (%s): %w", ci, c.Label, err)
		}
		var seeds []uint64
		if o.VR == vr.ModeAntithetic {
			if c.Replications%2 != 0 {
				return nil, fmt.Errorf("blocks: cell %d (%s): %d replications cannot form (plain, reflected) pairs", ci, c.Label, c.Replications)
			}
			seeds = PairedReplicationSeeds(c.Seed, c.Replications)
		} else {
			seeds = ReplicationSeeds(c.Seed, c.Replications)
		}
		for start := 0; start < c.Replications; start += o.BlockSize {
			end := start + o.BlockSize
			if end > c.Replications {
				end = c.Replications
			}
			m.Blocks = append(m.Blocks, Block{
				ID:        len(m.Blocks),
				CellIndex: ci,
				RepStart:  start,
				Seeds:     seeds[start:end:end],
			})
		}
	}
	m.Hash = m.computeHash()
	return m, nil
}

// checkVR rejects VR modes the kind cannot run. Antithetic pairs give a
// completion plan (s, s) seed pairs, which the completion runner — it has
// no reflected leg — would run as identical replications, reporting an
// interval narrower than the data supports.
func checkVR(kind string, mode vr.Mode) error {
	if _, err := mode.MarshalText(); err != nil {
		return fmt.Errorf("blocks: %w", err)
	}
	if mode == vr.ModeAntithetic && kind == KindCompletion {
		return fmt.Errorf("blocks: %s manifests cannot run %s VR (their replications have no reflected leg)", kind, mode)
	}
	return nil
}

// computeHash content-addresses the manifest: sha256 over its canonical
// JSON encoding with the Hash and Provenance fields blanked (both are
// about the plan, not of it).
func (m *Manifest) computeHash() string {
	clean := *m
	clean.Hash = ""
	clean.Provenance = nil
	data, err := json.Marshal(&clean)
	if err != nil {
		// Manifest fields are plain scalars and slices; marshal cannot
		// fail except through memory corruption.
		panic(fmt.Sprintf("blocks: manifest not marshalable: %v", err))
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// validate checks structural invariants a loaded manifest must satisfy:
// the hash matches the content, and each cell's blocks partition its
// replication space contiguously and in order.
func (m *Manifest) validate() error {
	if m.Version != 1 {
		return fmt.Errorf("blocks: manifest version %d not supported", m.Version)
	}
	if m.Kind != KindEstimate && m.Kind != KindCompletion {
		return fmt.Errorf("blocks: unknown manifest kind %q", m.Kind)
	}
	if err := checkVR(m.Kind, m.VR); err != nil {
		return err
	}
	if got := m.computeHash(); got != m.Hash {
		return fmt.Errorf("blocks: manifest hash mismatch: recorded %s, content %s (file edited or corrupt?)", m.Hash, got)
	}
	next := make([]int, len(m.Cells))
	lastCell := 0
	for i, b := range m.Blocks {
		if b.ID != i {
			return fmt.Errorf("blocks: block %d carries id %d", i, b.ID)
		}
		if b.CellIndex < 0 || b.CellIndex >= len(m.Cells) {
			return fmt.Errorf("blocks: block %d references cell %d of %d", i, b.CellIndex, len(m.Cells))
		}
		if b.CellIndex < lastCell {
			return fmt.Errorf("blocks: block %d breaks cell ordering", i)
		}
		lastCell = b.CellIndex
		if b.RepStart != next[b.CellIndex] {
			return fmt.Errorf("blocks: block %d starts at replication %d, want %d", i, b.RepStart, next[b.CellIndex])
		}
		if len(b.Seeds) == 0 {
			return fmt.Errorf("blocks: block %d has no replications", i)
		}
		if m.VR == vr.ModeAntithetic {
			// Pairs are aligned to even global offsets and never split
			// across blocks, and both legs of a pair carry the same seed —
			// the invariants the leg assignment (global index mod 2) and the
			// paired reducer rely on.
			if b.RepStart%2 != 0 || len(b.Seeds)%2 != 0 {
				return fmt.Errorf("blocks: block %d splits an antithetic pair (start %d, %d seeds)", i, b.RepStart, len(b.Seeds))
			}
			for k := 0; k+1 < len(b.Seeds); k += 2 {
				if b.Seeds[k] != b.Seeds[k+1] {
					return fmt.Errorf("blocks: block %d pair at replication %d has mismatched seeds", i, b.RepStart+k)
				}
			}
		}
		next[b.CellIndex] += len(b.Seeds)
	}
	for ci, c := range m.Cells {
		if next[ci] != c.Replications {
			return fmt.Errorf("blocks: cell %d (%s) plans %d of %d replications", ci, c.Label, next[ci], c.Replications)
		}
	}
	return nil
}

// Run-directory layout. Everything lives under one directory so a sweep is
// a single artifact that can sit on shared storage:
//
//	<dir>/manifest.json             the plan (written once, read-only after)
//	<dir>/leases/block-00042.json   a worker's claim on block 42
//	<dir>/journals/block-00042.jsonl  completed block 42 (temp + rename)
const (
	manifestFile = "manifest.json"
	leaseDir     = "leases"
	journalDir   = "journals"
)

// ManifestPath returns the manifest location inside a run directory.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestFile) }

// JournalPath returns the block's journal location.
func JournalPath(dir string, block int) string {
	return filepath.Join(dir, journalDir, fmt.Sprintf("block-%05d.jsonl", block))
}

// LeasePath returns the block's lease location.
func LeasePath(dir string, block int) string {
	return filepath.Join(dir, leaseDir, fmt.Sprintf("block-%05d.json", block))
}

// CreateRun initialises a run directory: creates it (and the leases/ and
// journals/ subdirectories) and writes the manifest via temp + rename. It
// refuses to overwrite a different manifest — re-planning the identical
// sweep into an existing directory is a no-op, anything else is an error,
// so two operators cannot silently mix runs.
func CreateRun(dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	for _, d := range []string{dir, filepath.Join(dir, leaseDir), filepath.Join(dir, journalDir)} {
		if err := os.MkdirAll(d, 0o777); err != nil {
			return fmt.Errorf("blocks: %w", err)
		}
	}
	path := ManifestPath(dir)
	if prev, err := LoadManifest(dir); err == nil {
		if prev.Hash == m.Hash {
			return nil // identical plan already present
		}
		return fmt.Errorf("blocks: %s already holds manifest %s (this plan is %s); use a fresh run directory", path, prev.Hash, m.Hash)
	} else if !os.IsNotExist(err) {
		return err
	}
	// Stamp the planner's provenance at write time (hash-excluded): the
	// run directory then records which commit, on which machine, planned
	// the sweep its journals realise.
	stamped := *m
	stamp := provenance.Collect().WithConfig(m.Hash)
	stamped.Provenance = &stamp
	data, err := json.MarshalIndent(&stamped, "", "  ")
	if err != nil {
		return fmt.Errorf("blocks: %w", err)
	}
	return atomicWrite(path, append(data, '\n'))
}

// LoadManifest reads and validates the run directory's manifest. A missing
// manifest is reported with os.IsNotExist semantics.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("blocks: %s: %w", ManifestPath(dir), err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("blocks: %s: %w", ManifestPath(dir), err)
	}
	return &m, nil
}

// atomicWrite commits data to path via a unique temp file and rename, the
// journal/lease commit primitive: readers see either nothing or the whole
// file, never a prefix — short of the torn-tail case after power loss,
// which the journal reader detects (see ReadBlockJournal).
func atomicWrite(path string, data []byte) error {
	err := obs.AtomicWrite(filepath.Dir(path), filepath.Base(path), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("blocks: %w", err)
	}
	return nil
}

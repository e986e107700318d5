package blocks

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/obs"
)

// Record is one journal line: the kind discriminator plus the fields.
// Writer-side (a RunFunc's output) the field values are live Go values.
// Reader-side (decodeRecords) each value is a json.RawMessage holding the
// original bytes — so re-emitting a record through obs.Journal reproduces
// nested objects (counters, sim snapshots) verbatim, key order and float
// formatting included. Only top-level fields are ever rewritten (the
// reducer replaces ci_half_width; obs.Journal refreshes kind and ts),
// which is exactly the byte-identity contract: a reduced journal differs
// from a monolithic one only in obs.TimestampFields.
type Record struct {
	Kind   string
	Fields map[string]any
}

// Float returns the named field parsed as float64. Parsing raw bytes is a
// read-only operation — the stored literal is untouched — and Go's float
// parsing is exact for floats Go printed, so the value equals the writer's
// original bit for bit.
func (r Record) Float(key string) (float64, bool) {
	switch v := r.Fields[key].(type) {
	case json.RawMessage:
		var f float64
		if err := json.Unmarshal(v, &f); err != nil {
			return 0, false
		}
		return f, true
	case float64:
		return v, true
	}
	return 0, false
}

// Uint returns the named field parsed as uint64.
func (r Record) Uint(key string) (uint64, bool) {
	switch v := r.Fields[key].(type) {
	case json.RawMessage:
		var u uint64
		if err := json.Unmarshal(v, &u); err != nil {
			return 0, false
		}
		return u, true
	case uint64:
		return v, true
	case int:
		if v >= 0 {
			return uint64(v), true
		}
	}
	return 0, false
}

// Str returns the named field parsed as a string.
func (r Record) Str(key string) (string, bool) {
	switch v := r.Fields[key].(type) {
	case json.RawMessage:
		var s string
		if err := json.Unmarshal(v, &s); err != nil {
			return "", false
		}
		return s, true
	case string:
		return v, true
	}
	return "", false
}

// Trailer is the commit record closing a complete block journal. A journal
// without a valid trailer — including one whose final line was torn by a
// crashed writer — is incomplete: the block is simply not done, and a
// resuming worker re-runs it.
type Trailer struct {
	Block        int     `json:"block"`
	Cell         int     `json:"cell"`
	RepStart     int     `json:"rep_start"`
	Replications int     `json:"replications"`
	Events       uint64  `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	Worker       string  `json:"worker"`
	ManifestHash string  `json:"manifest_hash"`
	// CommittedUnixMS is the trailer's obs.Journal "ts" stamp — journal
	// lines are buffered and stamped together at commit, so this is the
	// block's commit time. Derived on read, never serialised (json:"-"),
	// so it cannot perturb the journal's byte-identity contract. Zero when
	// the ts field is absent or unparseable.
	CommittedUnixMS int64 `json:"-"`
}

// trailerKind discriminates the commit record.
const trailerKind = "block_done"

// ErrIncomplete marks a block journal that does not commit: missing,
// torn mid-line by a crashed writer, or lacking its trailer. Callers
// distinguish it from hard corruption (wrong manifest, wrong block) with
// errors.Is; an incomplete journal means "re-run the block", never "abort
// the sweep".
var ErrIncomplete = errors.New("block journal incomplete")

// BlockOutput is what running a block produces: one "replication" record
// per replication, in replication order, plus the total simulation event
// count for telemetry.
type BlockOutput struct {
	Records []Record
	Events  uint64
}

// writeBlockJournal serialises a completed block: every replication record
// (with a block-local ci_half_width convergence field appended, mirroring
// the monolithic journal's per-record prefix CI) followed by the commit
// trailer. The bytes are committed with temp + rename, so a reader never
// sees a partially written journal under the final name unless the
// filesystem itself tore the rename's data (power loss) — which the
// trailer check and torn-line tolerance then absorb.
func writeBlockJournal(dir string, m *Manifest, b Block, out BlockOutput, worker string, wallMS float64) error {
	if len(out.Records) != b.Reps() {
		return fmt.Errorf("blocks: block %d produced %d records, want %d", b.ID, len(out.Records), b.Reps())
	}
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	// Block-local prefix widths (paired under VR — a block always holds
	// whole pairs); the reducer rewrites them to the cell-global prefix.
	foldWidths(m, out.Records)
	for i, rec := range out.Records {
		if err := j.Record(rec.Kind, rec.Fields); err != nil {
			return fmt.Errorf("blocks: block %d record %d: %w", b.ID, i, err)
		}
	}
	err := j.Record(trailerKind, map[string]any{
		"block":         b.ID,
		"cell":          b.CellIndex,
		"rep_start":     b.RepStart,
		"replications":  b.Reps(),
		"events":        out.Events,
		"wall_ms":       wallMS,
		"worker":        worker,
		"manifest_hash": m.Hash,
	})
	if err != nil {
		return fmt.Errorf("blocks: block %d trailer: %w", b.ID, err)
	}
	return atomicWrite(JournalPath(dir, b.ID), buf.Bytes())
}

// ReadBlockJournal loads and verifies one block's journal. On success it
// returns the replication records in order plus the trailer. An absent,
// torn, or uncommitted journal returns an error wrapping ErrIncomplete; a
// journal that parses but belongs to a different manifest or block returns
// a hard error, because that means run directories were mixed up, which
// re-running cannot fix.
func ReadBlockJournal(dir string, m *Manifest, b Block) ([]Record, *Trailer, error) {
	f, err := os.Open(JournalPath(dir, b.ID))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("blocks: block %d: journal missing: %w", b.ID, ErrIncomplete)
		}
		return nil, nil, fmt.Errorf("blocks: %w", err)
	}
	defer f.Close()
	recs, torn, err := decodeRecords(f)
	if err != nil {
		return nil, nil, fmt.Errorf("blocks: block %d journal: %w", b.ID, err)
	}
	if torn {
		return nil, nil, fmt.Errorf("blocks: block %d: journal has a torn final line (crashed writer): %w", b.ID, ErrIncomplete)
	}
	if len(recs) == 0 || recs[len(recs)-1].Kind != trailerKind {
		return nil, nil, fmt.Errorf("blocks: block %d: journal lacks its commit trailer: %w", b.ID, ErrIncomplete)
	}
	tr, err := parseTrailer(recs[len(recs)-1])
	if err != nil {
		return nil, nil, fmt.Errorf("blocks: block %d: %w: %v", b.ID, ErrIncomplete, err)
	}
	if tr.ManifestHash != m.Hash {
		return nil, nil, fmt.Errorf("blocks: block %d journal belongs to manifest %s, this run is %s", b.ID, tr.ManifestHash, m.Hash)
	}
	if tr.Block != b.ID || tr.Cell != b.CellIndex || tr.RepStart != b.RepStart || tr.Replications != b.Reps() {
		return nil, nil, fmt.Errorf("blocks: block %d journal trailer names block %d cell %d reps %d@%d, manifest plans cell %d reps %d@%d",
			b.ID, tr.Block, tr.Cell, tr.Replications, tr.RepStart, b.CellIndex, b.Reps(), b.RepStart)
	}
	reps := recs[:len(recs)-1]
	if len(reps) != b.Reps() {
		return nil, nil, fmt.Errorf("blocks: block %d: journal carries %d replication records, trailer promises %d: %w",
			b.ID, len(reps), b.Reps(), ErrIncomplete)
	}
	return reps, tr, nil
}

// BlockComplete reports whether the block's journal commits cleanly.
func BlockComplete(dir string, m *Manifest, b Block) bool {
	_, _, err := ReadBlockJournal(dir, m, b)
	return err == nil
}

// maxLineBytes bounds one journal line (same cap as internal/trace).
const maxLineBytes = 4 << 20

// decodeRecords scans JSONL records, tolerating a crashed writer: a final
// line that is truncated mid-object (or an unterminated last line) sets
// torn instead of failing, so callers treat the journal as incomplete
// work rather than a fatal input error. Malformed content that is not in
// tail position is also reported as torn — with concurrent crash-prone
// writers the only safe interpretation of any malformed journal is
// "re-run this block". Field values are kept as raw JSON (see Record).
func decodeRecords(r io.Reader) ([]Record, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	var out []Record
	for sc.Scan() {
		data := bytes.TrimSpace(sc.Bytes())
		if len(data) == 0 {
			continue
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			return out, true, nil
		}
		fields := make(map[string]any, len(raw))
		for k, v := range raw {
			fields[k] = v
		}
		rec := Record{Fields: fields}
		rec.Kind, _ = rec.Str("kind")
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return out, true, nil
		}
		return nil, false, err
	}
	return out, false, nil
}

// parseTrailer converts the commit record into its typed form.
func parseTrailer(rec Record) (*Trailer, error) {
	var tr Trailer
	get := func(key string) (int, error) {
		f, ok := rec.Float(key)
		if !ok || f != math.Trunc(f) {
			return 0, fmt.Errorf("trailer field %q malformed", key)
		}
		return int(f), nil
	}
	var err error
	if tr.Block, err = get("block"); err != nil {
		return nil, err
	}
	if tr.Cell, err = get("cell"); err != nil {
		return nil, err
	}
	if tr.RepStart, err = get("rep_start"); err != nil {
		return nil, err
	}
	if tr.Replications, err = get("replications"); err != nil {
		return nil, err
	}
	tr.Events, _ = rec.Uint("events")
	tr.WallMS, _ = rec.Float("wall_ms")
	tr.Worker, _ = rec.Str("worker")
	tr.ManifestHash, _ = rec.Str("manifest_hash")
	if ts, ok := rec.Str("ts"); ok {
		if t, terr := time.Parse(time.RFC3339Nano, ts); terr == nil {
			tr.CommittedUnixMS = t.UnixMilli()
		}
	}
	return &tr, nil
}

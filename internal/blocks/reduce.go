package blocks

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vr"
)

// isFinite reports a representable JSON number.
func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// CellResult is the merged view of one cell after every block journal has
// been folded in manifest order.
type CellResult struct {
	// Index is the cell's position in Manifest.Cells.
	Index int
	// Cell is the planned cell.
	Cell Cell
	// Records are the replication records, concatenated in manifest order
	// with ci_half_width rewritten from the block-local prefix to the
	// cell-global prefix — exactly the value a monolithic run journals.
	Records []Record
	// Values holds the manifest-ValueKey series in replication order.
	Values []float64
	// Totals holds total_useful per replication when present (estimate
	// kind), in replication order.
	Totals []float64
	// Events is the cell's total simulation event count.
	Events uint64
}

// FlatValues returns a copy of the value series.
func (c CellResult) FlatValues() []float64 {
	return append([]float64(nil), c.Values...)
}

// Replications counts the merged replication records.
func (c CellResult) Replications() int { return len(c.Records) }

// Reduce loads every block journal of the run directory and folds them, in
// manifest order, into per-cell results. If any block is incomplete —
// never run, torn by a crashed writer, or missing its trailer — Reduce
// reports them all in one error wrapping ErrIncomplete so the caller can
// print "resume first" guidance rather than a parse failure. Corrupt
// journals from a different manifest are hard errors.
//
// Because blocks partition each cell's replication range contiguously and
// Reduce visits them in manifest order, the merged record sequence — and
// every statistic folded from it — is independent of which workers ran
// which blocks and when. That is the other half of the determinism
// contract started by Plan's pre-assigned seeds.
func Reduce(dir string) (*Manifest, []CellResult, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	cells, err := ReduceManifest(dir, m)
	return m, cells, err
}

// ReduceManifest is Reduce against an already-loaded manifest.
func ReduceManifest(dir string, m *Manifest) ([]CellResult, error) {
	var incomplete []int
	cells := make([]CellResult, len(m.Cells))
	for ci := range m.Cells {
		cells[ci] = CellResult{Index: ci, Cell: m.Cells[ci]}
	}
	for _, b := range m.Blocks {
		recs, tr, err := ReadBlockJournal(dir, m, b)
		if err != nil {
			if errors.Is(err, ErrIncomplete) {
				incomplete = append(incomplete, b.ID)
				continue
			}
			return nil, err
		}
		c := &cells[b.CellIndex]
		for _, rec := range recs {
			if v, ok := rec.Float(m.ValueKey); ok {
				c.Values = append(c.Values, v)
			}
			if t, ok := rec.Float("total_useful"); ok {
				c.Totals = append(c.Totals, t)
			}
		}
		c.Records = append(c.Records, recs...)
		c.Events += tr.Events
	}
	if len(incomplete) > 0 {
		return nil, fmt.Errorf("blocks: reduce: %d of %d blocks incomplete %v: %w",
			len(incomplete), len(m.Blocks), incomplete, ErrIncomplete)
	}
	// Rewrite each record's ci_half_width to the cell-global prefix value.
	// The block writers journaled a block-local prefix (all they could
	// know); the merged journal must carry the same trajectory a monolithic
	// run writes. The fold consumes exactly-round-tripped floats in the
	// monolithic order, so the recomputed widths are bit-identical to the
	// single-process run's.
	for ci := range cells {
		foldWidths(m, cells[ci].Records)
	}
	return cells, nil
}

// foldWidths sets each replication record's ci_half_width to the prefix
// half-width of the manifest's fold (paired under antithetic VR) over the
// given records: block-local when handed one block, cell-global when handed
// a whole cell. The same fold serves the monolithic journal writer
// (runner), which is what pins the three journals to identical bytes.
func foldWidths(m *Manifest, recs []Record) {
	f := m.VR.Fold(m.Confidence)
	for _, rec := range recs {
		if v, ok := rec.Float(m.ValueKey); ok {
			f.Add(v)
			rec.Fields["ci_half_width"] = f.Convergence().HalfWidth
		}
	}
}

// EstimateFields builds the closing "estimate" record for a cell from its
// replication values in order. runner.writeJournal and the reducer both
// call it, which is what pins the two journal paths to one schema:
// replication count, total events, useful-work interval, total-useful
// interval and the convergence trajectory, all folded under the plan's VR
// mode. Under antithetic VR the record gains a "vr" block reporting the
// measured variance-reduction factor; plain mode emits exactly the pre-VR
// schema, byte for byte.
func EstimateFields(level float64, values, totals []float64, events uint64, label string, mode vr.Mode) map[string]any {
	frac := mode.Fold(level)
	convergence := frac.Trajectory(values)
	fields := map[string]any{
		"replications":    len(values),
		"events":          events,
		"useful_fraction": IntervalFields(frac.CI()),
		"total_useful":    IntervalFields(mode.Fold(level).AddAll(totals).CI()),
		"convergence":     convergence,
	}
	if r := vr.NewReport(frac.Paired()); r != nil {
		fields["vr"] = r
	}
	if label != "" {
		fields["label"] = label
	}
	return fields
}

// completionFields builds the closing record for a completion-kind cell.
func completionFields(m *Manifest, c CellResult) map[string]any {
	wall := m.VR.Fold(m.Confidence)
	convergence := wall.Trajectory(c.Values)
	fields := map[string]any{
		"replications": c.Replications(),
		"events":       c.Events,
		"work":         m.Work,
		"wall_hours":   IntervalFields(wall.CI()),
		"convergence":  convergence,
	}
	if c.Cell.Label != "" {
		fields["label"] = c.Cell.Label
	}
	return fields
}

// IntervalFields flattens a stats.Interval for the journal, nulling a
// non-finite half-width (n < 2) the same way obs.Journal treats top-level
// floats so nested maps marshal cleanly.
func IntervalFields(iv stats.Interval) map[string]any {
	var hw any = iv.HalfWide
	if !isFinite(iv.HalfWide) {
		hw = nil
	}
	return map[string]any{
		"mean":       iv.Mean,
		"half_width": hw,
		"level":      iv.Level,
		"n":          iv.N,
	}
}

// WriteReduced emits the merged journal: for each cell in manifest order,
// every replication record followed by the closing estimate (or
// completion) record — the same line sequence a monolithic run with the
// same plan writes, byte-identical apart from obs.TimestampFields.
func WriteReduced(j *obs.Journal, m *Manifest, cells []CellResult) error {
	for _, c := range cells {
		for _, rec := range c.Records {
			if err := j.Record(rec.Kind, rec.Fields); err != nil {
				return err
			}
		}
		var fields map[string]any
		kind := "estimate"
		if m.Kind == KindCompletion {
			kind = "completion"
			fields = completionFields(m, c)
		} else {
			fields = EstimateFields(m.Confidence, c.Values, c.Totals, c.Events, c.Cell.Label, m.VR)
		}
		if err := j.Record(kind, fields); err != nil {
			return err
		}
	}
	return nil
}

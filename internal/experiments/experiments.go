// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (Section 7) and renders their results as
// aligned text tables or CSV. Every experiment is a pure function of
// (runner.Options), so benchmark scale and full paper scale use the same
// code with different windows.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Point is one measured cell of a figure: an x value within a named series.
type Point struct {
	X        float64
	Fraction stats.Interval
	Total    stats.Interval
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is the reproduction of one paper figure: a set of series over a
// common x axis.
type Figure struct {
	ID     string // the experiment table row ID
	Title  string
	XLabel string
	YLabel string // "total useful work" or "useful work fraction"
	Series []Series
}

// YValue extracts the figure's y measure from a point based on YLabel.
func (f *Figure) YValue(p Point) float64 {
	if strings.Contains(f.YLabel, "fraction") {
		return p.Fraction.Mean
	}
	return p.Total.Mean
}

// SeriesByName returns the named series, or nil.
func (f *Figure) SeriesByName(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// ArgMax returns the x value at which the series' y measure (per the
// figure) peaks, and the peak value. It returns ok=false for an empty
// series.
func (f *Figure) ArgMax(s *Series) (x, y float64, ok bool) {
	if s == nil || len(s.Points) == 0 {
		return 0, 0, false
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if f.YValue(p) > f.YValue(best) {
			best = p
		}
	}
	return best.X, f.YValue(best), true
}

// WriteTable renders the figure as an aligned text table: one row per x
// value, one column per series, y = the figure's measure with its CI
// half-width in parentheses.
func WriteTable(w io.Writer, f *Figure) error {
	if len(f.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s: %s (empty)\n", f.ID, f.Title)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s: %s\n  y = %s\n", f.ID, f.Title, f.YLabel); err != nil {
		return err
	}
	xs := sortedXs(f)
	byXBySeries := index(f)

	header := make([]string, 0, len(f.Series)+1)
	header = append(header, pad(f.XLabel, 14))
	for _, s := range f.Series {
		header = append(header, pad(s.Name, 22))
	}
	if _, err := fmt.Fprintln(w, "  "+strings.Join(header, " ")); err != nil {
		return err
	}
	for _, x := range xs {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, pad(formatX(x), 14))
		for _, s := range f.Series {
			cell := "-"
			if p, exists := byXBySeries[s.Name][x]; exists {
				cell = fmt.Sprintf("%.4g (±%.2g)", f.YValue(p), ciHalf(f, p))
			}
			row = append(row, pad(cell, 22))
		}
		if _, err := fmt.Fprintln(w, "  "+strings.Join(row, " ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the figure as CSV with columns
// figure,series,x,y,ci_half,fraction,total.
func WriteCSV(w io.Writer, f *Figure) error {
	if _, err := fmt.Fprintln(w, "figure,series,x,y,ci_half,fraction,total"); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%q,%g,%g,%g,%g,%g\n",
				f.ID, s.Name, p.X, f.YValue(p), ciHalf(f, p),
				p.Fraction.Mean, p.Total.Mean); err != nil {
				return err
			}
		}
	}
	return nil
}

func ciHalf(f *Figure, p Point) float64 {
	if strings.Contains(f.YLabel, "fraction") {
		return p.Fraction.HalfWide
	}
	return p.Total.HalfWide
}

func sortedXs(f *Figure) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func index(f *Figure) map[string]map[float64]Point {
	out := make(map[string]map[float64]Point, len(f.Series))
	for _, s := range f.Series {
		m := make(map[float64]Point, len(s.Points))
		for _, p := range s.Points {
			m[p.X] = p
		}
		out[s.Name] = m
	}
	return out
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

func formatX(x float64) string {
	if x == float64(int64(x)) && x < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

package experiments

import (
	"fmt"
	"math"
)

// ClaimResult is the outcome of programmatically checking one of the
// paper's qualitative claims against a reproduced figure.
type ClaimResult struct {
	Figure string
	Claim  string
	Pass   bool
	Detail string
}

// CheckClaims verifies the shape claims of a reproduced figure with the
// checks its table row declares. Figures without a row (scenario sweeps)
// yield a single informational non-failure result so callers can run the
// checker over arbitrary figure sets.
func CheckClaims(fig *Figure) []ClaimResult {
	if d, err := LookupAny(fig.ID); err == nil && d.claims != nil {
		return d.claims(fig)
	}
	return []ClaimResult{{Figure: fig.ID, Claim: "no automated claim", Pass: true, Detail: "informational"}}
}

// slack returns the comparison tolerance for two points: their combined CI
// half-widths plus a small floor.
func slack(a, b Point, fig *Figure) float64 {
	return ciHalf(fig, a) + ciHalf(fig, b) + 1e-9
}

// checkOptimumShift verifies that every series has its optimum away from
// the largest x when the claim demands an interior knee, and that the
// optimum location moves monotonically across the series (which are
// ordered harshest-last when harsherLater is true, harshest-first
// otherwise).
func checkOptimumShift(fig *Figure, param string, harsherLater bool) []ClaimResult {
	var out []ClaimResult
	prevOpt := math.Inf(1)
	if !harsherLater {
		prevOpt = 0
	}
	for _, s := range fig.Series {
		s := s
		x, _, ok := fig.ArgMax(&s)
		if !ok {
			out = append(out, ClaimResult{fig.ID, "optimum exists", false, "empty series " + s.Name})
			continue
		}
		ok = true
		detail := fmt.Sprintf("%s: optimum at %g", s.Name, x)
		if harsherLater {
			// Series get harsher (larger MTTR / interval): optimum
			// must not increase.
			if x > prevOpt*2 { // allow one-grid-step noise (grid is ×2)
				ok = false
				detail += fmt.Sprintf(" (previous %g; expected non-increasing)", prevOpt)
			}
			if x < prevOpt || prevOpt == math.Inf(1) {
				prevOpt = x
			}
		} else {
			// Series get milder (larger MTTF): optimum must not
			// decrease.
			if x*2 < prevOpt {
				ok = false
				detail += fmt.Sprintf(" (previous %g; expected non-decreasing)", prevOpt)
			}
			if x > prevOpt {
				prevOpt = x
			}
		}
		out = append(out, ClaimResult{fig.ID, "optimum shifts with " + param, ok, detail})
	}
	return out
}

// checkNoInteriorOptimum verifies Figure 4b's claim: within the practical
// range, the smallest interval is (statistically) the best for every
// machine size.
func checkNoInteriorOptimum(fig *Figure) []ClaimResult {
	var out []ClaimResult
	for _, s := range fig.Series {
		if len(s.Points) < 2 {
			continue
		}
		first := s.Points[0]
		s := s
		x, y, _ := fig.ArgMax(&s)
		pass := x == first.X || y <= fig.YValue(first)+slack(first, s.Points[0], fig)
		out = append(out, ClaimResult{
			fig.ID, "no optimum beyond the smallest interval", pass,
			fmt.Sprintf("%s: best at %g (%.4g) vs smallest %g (%.4g)", s.Name, x, y, first.X, fig.YValue(first)),
		})
	}
	return out
}

// checkMonotoneDecreasing verifies each series never rises beyond combined
// CI noise.
func checkMonotoneDecreasing(fig *Figure) []ClaimResult {
	var out []ClaimResult
	for _, s := range fig.Series {
		pass := true
		detail := "monotone within CI noise"
		for i := 1; i < len(s.Points); i++ {
			prev, cur := s.Points[i-1], s.Points[i]
			if fig.YValue(cur) > fig.YValue(prev)+slack(prev, cur, fig) {
				pass = false
				detail = fmt.Sprintf("rises at x=%g: %.4g → %.4g", cur.X, fig.YValue(prev), fig.YValue(cur))
				break
			}
		}
		out = append(out, ClaimResult{fig.ID, "decreasing: " + s.Name, pass, detail})
	}
	return out
}

// checkSeriesOrdered verifies that series hi dominates series lo at every
// common x, within CI noise.
func checkSeriesOrdered(fig *Figure, hi, lo string) []ClaimResult {
	sh, sl := fig.SeriesByName(hi), fig.SeriesByName(lo)
	if sh == nil || sl == nil {
		return []ClaimResult{{fig.ID, fmt.Sprintf("%s ≥ %s", hi, lo), false, "series missing"}}
	}
	byX := map[float64]Point{}
	for _, p := range sl.Points {
		byX[p.X] = p
	}
	pass, detail := true, "dominates at every x"
	for _, p := range sh.Points {
		q, okX := byX[p.X]
		if !okX {
			continue
		}
		if fig.YValue(p)+slack(p, q, fig) < fig.YValue(q) {
			pass = false
			detail = fmt.Sprintf("violated at x=%g: %.4g < %.4g", p.X, fig.YValue(p), fig.YValue(q))
			break
		}
	}
	return []ClaimResult{{fig.ID, fmt.Sprintf("%s ≥ %s", hi, lo), pass, detail}}
}

// checkSharpDropAfter30 verifies Figure 4f's text claim on the harshest
// series: the 15→30 min drop is small relative to the 30→60 min drop.
func checkSharpDropAfter30(fig *Figure) []ClaimResult {
	s := fig.SeriesByName("MTTF=1yr")
	if s == nil || len(s.Points) < 3 {
		return []ClaimResult{{fig.ID, "sharp drop beyond 30min", false, "MTTF=1yr series missing"}}
	}
	y15, y30, y60 := s.Points[0].Total.Mean, s.Points[1].Total.Mean, s.Points[2].Total.Mean
	drop1530 := y15 - y30
	drop3060 := y30 - y60
	pass := drop3060 > drop1530
	return []ClaimResult{{
		fig.ID, "15→30min drop smaller than 30→60min drop", pass,
		fmt.Sprintf("drops: %.0f vs %.0f job units", drop1530, drop3060),
	}}
}

// checkTimeoutCollapse verifies Figure 6: at the smallest machine, a 120 s
// timeout performs close to no-timeout while 20 s collapses.
func checkTimeoutCollapse(fig *Figure) []ClaimResult {
	none := fig.SeriesByName("no timeout")
	t120 := fig.SeriesByName("timeout=120s")
	t20 := fig.SeriesByName("timeout=20s")
	if none == nil || t120 == nil || t20 == nil || len(none.Points) == 0 {
		return []ClaimResult{{fig.ID, "timeout collapse", false, "series missing"}}
	}
	i := 0 // smallest machine
	fNone := none.Points[i].Fraction.Mean
	f120 := t120.Points[i].Fraction.Mean
	f20 := t20.Points[i].Fraction.Mean
	passClose := f120 > 0.9*fNone
	passCollapse := f20 < 0.2*fNone
	return []ClaimResult{
		{fig.ID, "timeout=120s close to no timeout", passClose,
			fmt.Sprintf("%.3f vs %.3f at %g procs", f120, fNone, none.Points[i].X)},
		{fig.ID, "timeout=20s collapses", passCollapse,
			fmt.Sprintf("%.3f vs %.3f at %g procs", f20, fNone, none.Points[i].X)},
	}
}

// checkFlat verifies the whole figure varies by at most maxSpread
// (Figure 7's insensitivity claim).
func checkFlat(fig *Figure, maxSpread float64) []ClaimResult {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range fig.Series {
		for _, p := range s.Points {
			v := p.Fraction.Mean
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return []ClaimResult{{
		fig.ID, fmt.Sprintf("fraction spread ≤ %.2f", maxSpread), hi-lo <= maxSpread,
		fmt.Sprintf("range [%.3f, %.3f], spread %.3f", lo, hi, hi-lo),
	}}
}

// checkRecoveryGrows verifies the breakdown extra: the recovery share
// increases with machine size.
func checkRecoveryGrows(fig *Figure) []ClaimResult {
	s := fig.SeriesByName("recovery")
	if s == nil || len(s.Points) < 2 {
		return []ClaimResult{{fig.ID, "recovery share grows with scale", false, "recovery series missing"}}
	}
	first := s.Points[0].Fraction.Mean
	last := s.Points[len(s.Points)-1].Fraction.Mean
	return []ClaimResult{{
		fig.ID, "recovery share grows with scale", last > first,
		fmt.Sprintf("%.4f → %.4f", first, last),
	}}
}

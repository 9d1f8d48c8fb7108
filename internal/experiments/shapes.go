package experiments

import (
	"fmt"
	"strings"
)

// ShapeCheck is one qualitative expectation from the paper evaluated
// against measured panels: reproduction targets the *shape* of each
// figure (who wins, what direction errors move), not absolute numbers.
type ShapeCheck struct {
	Panel  string // "fig1(a)"
	Name   string
	OK     bool
	Detail string
}

// CheckShapes evaluates every applicable expectation against the given
// panels:
//
//   - error decreases (with slack) in ε and in n;
//   - error increases in s*;
//   - error is dimension-insensitive across d-series (polylog claim);
//   - private error sits at or above the non-private reference;
//   - measured error sits above a lower-bound floor series.
//
// The trends compare magnitudes, |first| against |last|, so a series at
// or below zero (an in-sample excess risk that is negative and shrinks
// toward 0) trends the way its error does. slack absorbs trial noise: a
// trend may regress by up to slack×|first| before the check fails. The
// paper's own real-data figures are "unstable" (§6.3), so shape checks
// are advisory for fig3/fig4.
func CheckShapes(panels []Panel, slack float64) []ShapeCheck {
	if slack <= 0 {
		slack = 0.35
	}
	var out []ShapeCheck
	for _, p := range panels {
		id := fmt.Sprintf("%s(%s)", p.Figure, p.Name)
		// Monotonicity is meaningless for a series hovering at zero
		// (e.g. the non-private reference, whose excess risk is noise
		// around 0): skip series whose magnitude is ≤ 10% of the panel's
		// largest series.
		panelMax := 0.0
		for _, s := range p.Series {
			for _, m := range s.Mean {
				if a := absf(m); a > panelMax {
					panelMax = a
				}
			}
		}
		switch p.XLabel {
		case "eps", "n":
			for _, s := range p.Series {
				if s.Name == "theorem9-floor" || len(s.X) < 2 {
					continue
				}
				maxAbs := 0.0
				for _, m := range s.Mean {
					if a := absf(m); a > maxAbs {
						maxAbs = a
					}
				}
				if maxAbs <= 0.1*panelMax {
					continue
				}
				first, last := s.Mean[0], s.Mean[len(s.Mean)-1]
				ok := absf(last) <= absf(first)*(1+slack)+1e-12
				out = append(out, ShapeCheck{
					Panel: id,
					Name:  fmt.Sprintf("decreasing-in-%s/%s", p.XLabel, s.Name),
					OK:    ok,
					Detail: fmt.Sprintf("err(%s=%.3g)=%.4g vs err(%s=%.3g)=%.4g",
						p.XLabel, s.X[0], first, p.XLabel, s.X[len(s.X)-1], last),
				})
			}
		case "s*":
			for _, s := range p.Series {
				if len(s.X) < 2 {
					continue
				}
				first, last := s.Mean[0], s.Mean[len(s.Mean)-1]
				ok := absf(last) >= absf(first)*(1-slack)
				out = append(out, ShapeCheck{
					Panel:  id,
					Name:   "increasing-in-s*/" + s.Name,
					OK:     ok,
					Detail: fmt.Sprintf("err(s*=%.3g)=%.4g vs err(s*=%.3g)=%.4g", s.X[0], first, s.X[len(s.X)-1], last),
				})
			}
		}
		out = append(out, dimensionCheck(id, p)...)
		out = append(out, referenceChecks(id, p)...)
	}
	return out
}

// dimensionCheck verifies the polylog-in-d claim: across d=… series,
// the largest dimension's error stays within a constant factor of the
// smallest's at every x.
func dimensionCheck(id string, p Panel) []ShapeCheck {
	var dims []Series
	for _, s := range p.Series {
		if strings.HasPrefix(s.Name, "d=") {
			dims = append(dims, s)
		}
	}
	if len(dims) < 2 {
		return nil
	}
	const factor = 6.0
	lo, hi := dims[0], dims[len(dims)-1]
	worst := 0.0
	ok := true
	for i := range lo.X {
		if lo.Mean[i] <= 0 {
			continue
		}
		r := hi.Mean[i] / lo.Mean[i]
		if r > worst {
			worst = r
		}
		if r > factor {
			ok = false
		}
	}
	return []ShapeCheck{{
		Panel:  id,
		Name:   "dimension-insensitive",
		OK:     ok,
		Detail: fmt.Sprintf("max err(%s)/err(%s) = %.2f (allowed %.0f)", hi.Name, lo.Name, worst, factor),
	}}
}

// referenceChecks handles the private-vs-non-private and
// measured-vs-floor panels.
func referenceChecks(id string, p Panel) []ShapeCheck {
	find := func(name string) *Series {
		for i := range p.Series {
			if p.Series[i].Name == name {
				return &p.Series[i]
			}
		}
		return nil
	}
	var out []ShapeCheck
	if priv, np := find("private"), find("non-private"); priv != nil && np != nil {
		ok := true
		for i := range priv.X {
			if priv.Mean[i] < np.Mean[i]-0.05*absf(np.Mean[i])-1e-9 {
				ok = false
			}
		}
		out = append(out, ShapeCheck{Panel: id, Name: "private-above-nonprivate", OK: ok,
			Detail: fmt.Sprintf("private tail %.4g vs non-private %.4g",
				priv.Mean[len(priv.Mean)-1], np.Mean[len(np.Mean)-1])})
	}
	if meas, floor := find("alg5-measured"), find("theorem9-floor"); meas != nil && floor != nil {
		ok := true
		for i := range meas.X {
			if meas.Mean[i] < floor.Mean[i] {
				ok = false
			}
		}
		out = append(out, ShapeCheck{Panel: id, Name: "above-minimax-floor", OK: ok,
			Detail: fmt.Sprintf("measured tail %.4g vs floor %.4g",
				meas.Mean[len(meas.Mean)-1], floor.Mean[len(floor.Mean)-1])})
	}
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WriteShapeReport prints the checks as a compact pass/fail table and
// returns the number of failures.
func WriteShapeReport(w interface{ Write([]byte) (int, error) }, checks []ShapeCheck) int {
	fails := 0
	for _, c := range checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
			fails++
		}
		fmt.Fprintf(w, "%s  %-12s %-40s %s\n", status, c.Panel, c.Name, c.Detail)
	}
	return fails
}

package main

import (
	"math"
	"sort"
)

// summary describes one metric's per-pass samples. P25 is the gated
// statistic: on a shared host the slow tail of a pass is other tenants'
// work, so the lower quartile tracks the code and the upper one the host.
type summary struct {
	Min float64 `json:"min"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	// HiPct is the highest percentile that still has ten samples beyond
	// it (50 when there are too few samples for anything higher) and Hi
	// its value.
	HiPct int     `json:"hi_pct"`
	Hi    float64 `json:"hi"`
	N     int     `json:"n"`
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sorted(samples []float64) []float64 {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return xs
}

// ratio is a/b, and 0 where there is nothing to divide by: a failed op
// leaves counts at zero, and the results must still be valid JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func summarize(samples []float64) summary {
	xs := sorted(samples)
	s := summary{
		P25: quantile(xs, 0.25), P50: quantile(xs, 0.5), P75: quantile(xs, 0.75),
		HiPct: 50, N: len(xs),
	}
	if len(xs) > 0 {
		s.Min = xs[0]
	}
	s.Hi = s.P50
	if k := len(xs) - 11; k > (len(xs)-1)/2 {
		s.HiPct = 100 * k / (len(xs) - 1)
		s.Hi = xs[k]
	}
	return s
}

// logLogSlope is the least-squares slope of log y on log x: the exponent
// k of the power law y ∝ x^k that best fits the points.
func logLogSlope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// verdict is the outcome of holding one metric of a changed tree (b)
// against the same metric of its parent (a).
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a regression bound, given as a share of the parent's
// value, to a metric for which lower is better. A worsening beyond the
// bound is a regression only when the change's p25–p75 range lies wholly
// above the parent's; while the ranges overlap the shift is inside the
// pass-to-pass spread and the row is unresolved, not cleared.
func judge(a, b metric, bound float64) verdict {
	if b.Value <= a.Value*(1+bound) {
		return verdictOK
	}
	if b.P25 > a.P75 {
		return verdictRegressed
	}
	return verdictUnresolved
}

package ppattern

import (
	"cmp"
	"math"
	"slices"
)

// Period discovery. Ma and Hellerstein's p-pattern mining does not assume
// the period is known: it first finds statistically significant candidate
// periods from an item's inter-arrival distribution, then mines patterns
// at those periods. This file implements that first phase.
//
// The test follows the paper's construction: if events occurred at random
// (a Poisson process with the item's observed rate), the count of
// inter-arrival times falling in a window around a candidate period p
// would follow a binomial distribution; a chi-squared score far above the
// 95% quantile of chi^2(1) rejects randomness and makes p a candidate
// period.

// CandidatePeriod is a period supported by significantly many
// inter-arrival times.
type CandidatePeriod struct {
	Period int64
	// Count is the number of inter-arrival times within the tolerance
	// window of the period.
	Count int
	// Score is the chi-squared statistic against the random-arrivals null.
	Score float64
}

// chiSquared95 is the 95% quantile of the chi-squared distribution with
// one degree of freedom.
const chiSquared95 = 3.84

// DiscoverPeriods returns the candidate periods of a sorted timestamp
// list, strongest first. w is the time tolerance (a gap g supports period
// p iff |g-p| <= w); spanFirst/spanLast bound the observation window used
// for the null model. Periods from 1 up to half the span are considered.
func DiscoverPeriods(ts []int64, w int64, spanFirst, spanLast int64) []CandidatePeriod {
	if len(ts) < 3 || spanLast <= spanFirst || w < 0 {
		return nil // a negative tolerance matches no gap
	}
	span := float64(uint64(spanLast)-uint64(spanFirst)) + 1
	n := len(ts) - 1 // number of inter-arrival times
	rate := float64(len(ts)) / span

	// Histogram of inter-arrival times.
	gaps := make(map[int64]int)
	maxGap := int64(0)
	for i := 1; i < len(ts); i++ {
		// Unsigned, so a gap wider than the int64 range cannot wrap;
		// such a gap exceeds every period considered below.
		g := int64(math.MaxInt64)
		if d := uint64(ts[i]) - uint64(ts[i-1]); d < math.MaxInt64 {
			g = int64(d)
		}
		gaps[g]++
		if g > maxGap {
			maxGap = g
		}
	}
	half := int64((uint64(spanLast) - uint64(spanFirst)) / 2)
	if maxGap > half {
		maxGap = half
	}

	// Only a period within w of some observed positive gap has a nonzero
	// count, so the candidates are the union of [g-w, g+w] ∩ [1, maxGap]
	// over the distinct gaps g, walked in ascending order; every other
	// period would be skipped anyway. gs and cum (running counts) give a
	// period's count by two binary searches, so neither the number of
	// candidates nor w times it depends on how far apart timestamps are.
	gs := make([]int64, 0, len(gaps))
	for g := range gaps {
		if g > 0 {
			gs = append(gs, g)
		}
	}
	slices.Sort(gs)
	cum := make([]int, len(gs)+1)
	for i, g := range gs {
		cum[i+1] = cum[i] + gaps[g]
	}
	var out []CandidatePeriod
	next := int64(1) // lowest period not yet considered
	for _, g := range gs {
		for p := max(g-w, next); p <= min(satAdd(g, w), maxGap); p++ {
			next = p + 1
			first, _ := slices.BinarySearch(gs, p-w)
			end, found := slices.BinarySearch(gs, satAdd(p, w))
			if found {
				end++
			}
			count := cum[end] - cum[first]
			if count <= 0 {
				continue
			}
			// Null: each gap lands in the window [p-w, p+w] with the
			// probability a Poisson inter-arrival (exponential with the
			// observed rate) would.
			lo := float64(p-w) - 0.5
			if lo < 0 {
				lo = 0
			}
			hi := float64(satAdd(p, w)) + 0.5
			prob := math.Exp(-rate*lo) - math.Exp(-rate*hi)
			if prob <= 0 || prob >= 1 {
				continue
			}
			expected := float64(n) * prob
			diff := float64(count) - expected
			score := diff * diff / (expected * (1 - prob))
			if diff > 0 && score > chiSquared95 {
				out = append(out, CandidatePeriod{Period: p, Count: count, Score: score})
			}
		}
	}
	slices.SortFunc(out, func(a, b CandidatePeriod) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Period, b.Period)
	})
	// Suppress harmonics and window-overlap duplicates: keep a period only
	// if no stronger kept period lies within w of it.
	var kept []CandidatePeriod
	for _, c := range out {
		dup := false
		for _, k := range kept {
			if abs64(k.Period-c.Period) <= w {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, c)
		}
	}
	return kept
}

// satAdd returns a+b for b >= 0, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

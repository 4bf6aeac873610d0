// Package core implements the recurring pattern model and the RP-growth
// algorithm of Kiran, Shang, Toyoda and Kitsuregawa, "Discovering Recurring
// Patterns in Time Series" (EDBT 2015).
//
// The package is organized in three layers:
//
//   - the measure layer (this file): periodic intervals, periodic supports,
//     recurrence and the Erec pruning bound, all computed from plain sorted
//     timestamp lists (paper Definitions 4-9 and the pruning technique of
//     Section 4.1);
//   - the RP-growth miner: RP-list (Algorithm 1), RP-tree (Algorithms 2-3)
//     and pattern-growth mining (Algorithms 4-5);
//   - alternative miners used for validation and ablation: a vertical
//     (ts-list intersection) miner and a brute-force oracle.
//
// All miners produce identical, canonically ordered results.
package core

import "math"

// Interval is a periodic interval of a pattern (paper Definition 5): the
// timestamp range [Start, End] of a maximal run of occurrences whose
// consecutive inter-arrival times are all within the period, together with
// the run's periodic support PS (Definition 6), the number of occurrences in
// the run.
type Interval struct {
	Start, End int64
	PS         int
}

// periodic reports whether the inter-arrival time from prev to next is at
// most per (Definition 4). Timestamps are sorted, so next-prev is a
// non-negative gap of up to 2^64-1; it is taken in uint64 because the
// int64 difference wraps for gaps wider than the int64 range (a gap from
// near math.MinInt64 to near math.MaxInt64 would come out small and
// negative, and so "periodic"). per is positive, so its conversion is exact.
func periodic(prev, next, per int64) bool {
	return uint64(next)-uint64(prev) <= uint64(per)
}

// gap is next-prev for prev <= next, saturated at math.MaxInt64 instead of
// wrapping when the true gap exceeds the int64 range.
func gap(prev, next int64) int64 {
	if d := uint64(next) - uint64(prev); d <= math.MaxInt64 {
		return int64(d)
	}
	return math.MaxInt64
}

// Intervals partitions a sorted timestamp list into its periodic intervals:
// maximal runs where every consecutive gap is at most per. Every timestamp
// belongs to exactly one run; a timestamp whose neighbors are both farther
// than per away forms a singleton run with PS = 1.
//
// The input must be sorted ascending and duplicate-free; per must be
// positive. An empty input yields nil.
func Intervals(ts []int64, per int64) []Interval {
	if len(ts) == 0 {
		return nil
	}
	var out []Interval
	start := ts[0]
	ps := 1
	for i := 1; i < len(ts); i++ {
		if periodic(ts[i-1], ts[i], per) {
			ps++
			continue
		}
		out = append(out, Interval{Start: start, End: ts[i-1], PS: ps})
		start = ts[i]
		ps = 1
	}
	return append(out, Interval{Start: start, End: ts[len(ts)-1], PS: ps})
}

// Recurrence computes Rec(X) (Definition 8) and the interesting periodic
// intervals IPI^X (Definition 7) of a pattern from its sorted timestamp
// list: the periodic intervals whose periodic support reaches minPS.
//
// This is the paper's getRecurrence procedure (Algorithm 5), fused with
// interval collection in a single pass.
func Recurrence(ts []int64, per int64, minPS int) (rec int, ipi []Interval) {
	if len(ts) == 0 {
		return 0, nil
	}
	start := ts[0]
	ps := 1
	flush := func(end int64) {
		if ps >= minPS {
			ipi = append(ipi, Interval{Start: start, End: end, PS: ps})
			rec++
		}
	}
	for i := 1; i < len(ts); i++ {
		if periodic(ts[i-1], ts[i], per) {
			ps++
			continue
		}
		flush(ts[i-1])
		start = ts[i]
		ps = 1
	}
	flush(ts[len(ts)-1])
	return rec, ipi
}

// Erec computes the estimated maximum recurrence bound of Section 4.1:
//
//	Erec(X) = sum over periodic intervals of floor(ps_i / minPS)
//
// For any pattern Y that is a superset of X, Rec(Y) <= Erec(Y) <= Erec(X)
// (paper Properties 1 and 2), so if Erec(X) < minRec neither X nor any of
// its supersets can be recurring. The input must be sorted ascending; minPS
// must be positive.
func Erec(ts []int64, per int64, minPS int) int {
	if len(ts) == 0 {
		return 0
	}
	erec := 0
	ps := 1
	for i := 1; i < len(ts); i++ {
		if periodic(ts[i-1], ts[i], per) {
			ps++
			continue
		}
		erec += ps / minPS
		ps = 1
	}
	return erec + ps/minPS
}

// MaxPeriodicity returns the largest inter-arrival time of a sorted
// timestamp list, additionally counting the lead-in gap from spanFirst to
// the first occurrence and the lead-out gap from the last occurrence to
// spanLast. This is the periodicity measure of the periodic-frequent pattern
// model (Tanbeer et al., PAKDD 2009) that the paper compares against in
// Table 8; it lives here so the baseline and the tests share one definition.
// A gap wider than the int64 range counts as math.MaxInt64.
func MaxPeriodicity(ts []int64, spanFirst, spanLast int64) int64 {
	if len(ts) == 0 {
		return gap(spanFirst, spanLast)
	}
	max := gap(spanFirst, ts[0])
	for i := 1; i < len(ts); i++ {
		if d := gap(ts[i-1], ts[i]); d > max {
			max = d
		}
	}
	if d := gap(ts[len(ts)-1], spanLast); d > max {
		max = d
	}
	return max
}

// PeriodicAppearances counts the inter-arrival times of a sorted timestamp
// list that are at most per (paper Definition 4). This is the "number of
// cyclic repetitions throughout the data" that the p-pattern model of Ma and
// Hellerstein thresholds with minSup; shared with the ppattern baseline.
func PeriodicAppearances(ts []int64, per int64) int {
	n := 0
	for i := 1; i < len(ts); i++ {
		if periodic(ts[i-1], ts[i], per) {
			n++
		}
	}
	return n
}

// IntersectTS intersects two sorted timestamp lists, appending the result to
// dst (which may be nil). Used by the vertical miner and the baselines.
func IntersectTS(dst, a, b []int64) []int64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

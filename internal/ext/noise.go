// Package ext implements extensions to the recurring pattern model that the
// paper's Section 6 leaves as future work — noise-tolerant recurrence and
// phase-shift tolerance — plus two utilities built on the model: top-k
// recurring pattern mining and recurring association rules for
// recommendation.
package ext

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// NoiseOptions extends the recurring pattern thresholds with a bounded
// noise budget: within one periodic interval, up to MaxViolations
// inter-arrival times may exceed Per, provided each stays within
// NoiseFactor*Per. This models measurement dropouts — an otherwise periodic
// pattern missing a handful of beats keeps its interval instead of having
// it split.
type NoiseOptions struct {
	core.Options
	// MaxViolations is the number of over-period gaps tolerated per
	// interval. Zero reproduces the strict model exactly.
	MaxViolations int
	// NoiseFactor bounds how large a tolerated gap may be, as a multiple of
	// Per. Values below 1 are treated as 1 (no tolerance).
	NoiseFactor float64
}

// Validate reports the first violated constraint.
func (o NoiseOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.MaxViolations < 0 {
		return fmt.Errorf("ext: MaxViolations must be non-negative, got %d", o.MaxViolations)
	}
	return nil
}

// relaxedPer returns the largest gap a noisy interval may contain.
func (o NoiseOptions) relaxedPer() int64 {
	if o.NoiseFactor <= 1 || o.MaxViolations == 0 {
		return o.Per
	}
	r := o.NoiseFactor * float64(o.Per)
	if r >= math.MaxInt64 {
		return math.MaxInt64 // float-to-int conversion of a larger value is undefined
	}
	return int64(r)
}

// NoisyRecurrence computes the noise-tolerant recurrence of a sorted
// timestamp list: periodic intervals may absorb up to MaxViolations gaps in
// (Per, NoiseFactor*Per]; a gap beyond the relaxed bound, or one more
// violation than the budget allows, closes the interval (and resets the
// budget).
func NoisyRecurrence(ts []int64, o NoiseOptions) (rec int, ipi []core.Interval) {
	if len(ts) == 0 {
		return 0, nil
	}
	relaxed := o.relaxedPer()
	start := ts[0]
	ps := 1
	viol := 0
	flush := func(end int64) {
		if ps >= o.MinPS {
			ipi = append(ipi, core.Interval{Start: start, End: end, PS: ps})
			rec++
		}
	}
	for i := 1; i < len(ts); i++ {
		// Unsigned, so a gap wider than the int64 range cannot wrap.
		gap := uint64(ts[i]) - uint64(ts[i-1])
		switch {
		case gap <= uint64(o.Per):
			ps++
		case gap <= uint64(relaxed) && viol < o.MaxViolations:
			viol++
			ps++
		default:
			flush(ts[i-1])
			start = ts[i]
			ps = 1
			viol = 0
		}
	}
	flush(ts[len(ts)-1])
	return rec, ipi
}

// MineNoisy discovers all patterns whose noise-tolerant recurrence reaches
// MinRec. Pruning uses the Erec bound evaluated at the relaxed period: every
// noisy interesting interval lies inside a relaxed-period run, and a run
// containing m disjoint noisy intervals has periodic support at least
// m*MinPS, so Erec at the relaxed period upper-bounds the noisy recurrence
// of the pattern and (by anti-monotonicity) of all its supersets.
func MineNoisy(db *tsdb.DB, o NoiseOptions) (*core.Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	relaxed := o.relaxedPer()
	res := &core.Result{}
	all := db.ItemTSLists()
	type entry struct {
		item tsdb.ItemID
		ts   []int64
	}
	var items []entry
	for id, ts := range all {
		if core.Erec(ts, relaxed, o.MinPS) >= o.MinRec {
			items = append(items, entry{item: tsdb.ItemID(id), ts: ts})
		}
	}
	slices.SortFunc(items, func(a, b entry) int {
		if len(a.ts) != len(b.ts) {
			return len(b.ts) - len(a.ts)
		}
		return cmp.Compare(a.item, b.item)
	})

	var dfs func(prefix []tsdb.ItemID, ts []int64, idx int)
	dfs = func(prefix []tsdb.ItemID, ts []int64, idx int) {
		rec, ipi := NoisyRecurrence(ts, o)
		if rec >= o.MinRec {
			sorted := make([]tsdb.ItemID, len(prefix))
			copy(sorted, prefix)
			slices.Sort(sorted)
			res.Patterns = append(res.Patterns, core.Pattern{
				Items: sorted, Support: len(ts), Recurrence: rec, Intervals: ipi,
			})
		}
		if o.MaxLen > 0 && len(prefix) >= o.MaxLen {
			return
		}
		n := len(prefix)
		for j := idx + 1; j < len(items); j++ {
			ext := core.IntersectTS(nil, ts, items[j].ts)
			if len(ext) == 0 || core.Erec(ext, relaxed, o.MinPS) < o.MinRec {
				continue
			}
			dfs(append(prefix[:n:n], items[j].item), ext, j)
		}
	}
	for i := range items {
		dfs([]tsdb.ItemID{items[i].item}, items[i].ts, i)
	}
	res.Canonicalize()
	return res, nil
}

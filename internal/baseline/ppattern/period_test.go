package ppattern

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestDiscoverPeriodsFindsPlantedPeriod(t *testing.T) {
	// Strongly periodic arrivals every 7 units with jitter of ±1.
	rng := rand.New(rand.NewPCG(2, 2))
	var ts []int64
	cur := int64(1)
	for i := 0; i < 300; i++ {
		ts = append(ts, cur)
		cur += 7 + rng.Int64N(3) - 1
	}
	periods := DiscoverPeriods(ts, 1, ts[0], ts[len(ts)-1])
	if len(periods) == 0 {
		t.Fatal("no periods discovered")
	}
	best := periods[0]
	if best.Period < 6 || best.Period > 8 {
		t.Errorf("best period = %d, want ~7 (all: %+v)", best.Period, periods)
	}
	if best.Count < 250 {
		t.Errorf("best period count = %d, want most of 299", best.Count)
	}
}

func TestDiscoverPeriodsRejectsRandomArrivals(t *testing.T) {
	// A Poisson process has no period; the detector may fire on a handful
	// of spurious windows but must not report strong, dominant periods.
	rng := rand.New(rand.NewPCG(5, 5))
	var ts []int64
	cur := int64(1)
	for i := 0; i < 500; i++ {
		ts = append(ts, cur)
		cur += rng.Int64N(20) + 1
	}
	periods := DiscoverPeriods(ts, 1, ts[0], ts[len(ts)-1])
	for _, p := range periods {
		// Allow weak false positives; a planted period in the previous test
		// scores in the hundreds, so anything comparable here is a bug.
		if p.Score > 100 {
			t.Errorf("random arrivals produced strong period %+v", p)
		}
	}
}

func TestDiscoverPeriodsDegenerate(t *testing.T) {
	if got := DiscoverPeriods(nil, 1, 0, 100); got != nil {
		t.Errorf("nil input: %v", got)
	}
	if got := DiscoverPeriods([]int64{1, 2}, 1, 1, 2); got != nil {
		t.Errorf("two points: %v", got)
	}
	if got := DiscoverPeriods([]int64{1, 2, 3}, 1, 3, 1); got != nil {
		t.Errorf("inverted span: %v", got)
	}
}

func TestDiscoverPeriodsMultiple(t *testing.T) {
	// Two interleaved processes: period 5 and period 13. Both should rank.
	var ts []int64
	seen := map[int64]bool{}
	for c := int64(1); c < 3000; c += 5 {
		if !seen[c] {
			ts = append(ts, c)
			seen[c] = true
		}
	}
	for c := int64(3); c < 3000; c += 13 {
		if !seen[c] {
			ts = append(ts, c)
			seen[c] = true
		}
	}
	sortInt64(ts)
	periods := DiscoverPeriods(ts, 0, ts[0], ts[len(ts)-1])
	found5 := false
	for _, p := range periods {
		if p.Period == 5 {
			found5 = true
		}
	}
	if !found5 {
		t.Errorf("period 5 not discovered: %+v", periods)
	}
}

func sortInt64(ts []int64) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func TestDiscoverPeriodsExtremeTimestamps(t *testing.T) {
	// Timestamps at both ends of the int64 range: half the span is about
	// 2^62, so walking every period up to it never finishes, and the
	// widest gap exceeds the int64 range. Only the periods near an
	// observed gap are candidates.
	ts := []int64{-9223372036854775803, -9223372036854775802, -9223372036854775801, 9223372036854775802}
	done := make(chan []CandidatePeriod, 1)
	go func() { done <- DiscoverPeriods(ts, 1, ts[0], ts[len(ts)-1]) }()
	select {
	case got := <-done:
		for _, p := range got {
			if p.Period > 2 || p.Count < 1 {
				t.Errorf("extreme timestamps gave candidate %+v, want one near gap 1", p)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DiscoverPeriods did not finish on extreme timestamps")
	}
}

func TestDiscoverPeriodsMatchesExhaustiveScan(t *testing.T) {
	// The gap-driven enumeration reports exactly what scoring every period
	// from 1 to half the span reports, in the same order.
	rng := rand.New(rand.NewPCG(3, 8))
	for trial := 0; trial < 200; trial++ {
		var ts []int64
		cur := rng.Int64N(50)
		for i := 3 + rng.IntN(60); i > 0; i-- {
			ts = append(ts, cur)
			cur += rng.Int64N(30)
		}
		w := rng.Int64N(4)
		first, last := ts[0]-rng.Int64N(10), ts[len(ts)-1]+rng.Int64N(10)
		got := DiscoverPeriods(ts, w, first, last)
		want := exhaustivePeriods(ts, w, first, last)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (w=%d): got %+v, want %+v", trial, w, got, want)
		}
	}
}

// exhaustivePeriods is DiscoverPeriods scoring every period from 1 to the
// largest gap (at most half the span): the definition, for small inputs.
func exhaustivePeriods(ts []int64, w int64, spanFirst, spanLast int64) []CandidatePeriod {
	if len(ts) < 3 || spanLast <= spanFirst {
		return nil
	}
	span := float64(spanLast-spanFirst) + 1
	n := len(ts) - 1
	rate := float64(len(ts)) / span
	gaps := map[int64]int{}
	maxGap := int64(0)
	for i := 1; i < len(ts); i++ {
		g := ts[i] - ts[i-1]
		gaps[g]++
		maxGap = max(maxGap, g)
	}
	maxGap = min(maxGap, (spanLast-spanFirst)/2)
	var out []CandidatePeriod
	for p := int64(1); p <= maxGap; p++ {
		count := 0
		for d := p - w; d <= p+w; d++ {
			if d > 0 {
				count += gaps[d]
			}
		}
		if count == 0 {
			continue
		}
		lo := max(float64(p-w)-0.5, 0)
		hi := float64(p+w) + 0.5
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
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Period < out[j].Period
	})
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

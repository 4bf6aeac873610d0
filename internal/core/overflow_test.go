package core

import (
	"context"
	"encoding/binary"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// The timestamps -9223372036854775803 and 9223372036854775802 are 2^64-11
// apart, but their int64 difference wraps to -11, which a signed
// "gap <= per" test accepts.

// TestExtremeTimestampPairIsNotPeriodic mines the pair the text reader
// accepts at per=10, minPS=2: the two occurrences are almost as far apart
// as int64 timestamps can be, so no interval reaches minPS and no miner
// may report a pattern.
func TestExtremeTimestampPairIsNotPeriodic(t *testing.T) {
	db, err := tsdb.Read(strings.NewReader("-9223372036854775803 a\n9223372036854775802 a\n"))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Per: 10, MinPS: 2, MinRec: 1}
	if list := BuildRPList(db, o); len(list.Candidates) != 0 {
		t.Errorf("RP-list keeps %+v as a candidate", list.Candidates)
	}
	miners := map[string]func(*tsdb.DB, Options) (*Result, error){
		"Mine":           Mine,
		"MineVertical":   MineVertical,
		"MineBruteForce": MineBruteForce,
		"parallel": func(db *tsdb.DB, o Options) (*Result, error) {
			o.Parallelism = 2
			return Mine(db, o)
		},
		"shard": func(db *tsdb.DB, o Options) (*Result, error) {
			return MineShardContext(context.Background(), db, o, ShardSpec{Index: 0, Count: 1})
		},
	}
	for name, mine := range miners {
		res, err := mine(db, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Patterns) != 0 {
			t.Errorf("%s reports %v", name, res.Patterns)
		}
	}

	inc, err := NewIncremental(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{-9223372036854775803, 9223372036854775802} {
		if err := inc.Append(ts, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if c := inc.Candidates(); len(c) != 0 {
		t.Errorf("incremental RP-list keeps %+v", c)
	}
}

func TestMaxPeriodicitySaturates(t *testing.T) {
	ts := []int64{math.MinInt64, math.MaxInt64}
	if got := MaxPeriodicity(ts, math.MinInt64, math.MaxInt64); got != math.MaxInt64 {
		t.Errorf("MaxPeriodicity over the full range = %d, want MaxInt64", got)
	}
	if got := MaxPeriodicity(nil, -1, math.MaxInt64); got != math.MaxInt64 {
		t.Errorf("empty list over a range wider than int64 = %d, want MaxInt64", got)
	}
	if got := MaxPeriodicity([]int64{-3, 4}, -5, 5); got != 7 {
		t.Errorf("small range = %d, want 7", got)
	}
}

// refInterval is the big-integer reference's periodic interval.
type refInterval struct {
	start, end int64
	ps         int
}

// refIntervals partitions a sorted list into maximal runs whose gaps are at
// most per, computing every gap exactly with math/big.
func refIntervals(ts []int64, per int64) []refInterval {
	var out []refInterval
	bigPer := big.NewInt(per)
	d := new(big.Int)
	for i, v := range ts {
		if i > 0 {
			d.Sub(big.NewInt(v), big.NewInt(ts[i-1]))
			if d.Cmp(bigPer) <= 0 {
				out[len(out)-1].end = v
				out[len(out)-1].ps++
				continue
			}
		}
		out = append(out, refInterval{start: v, end: v, ps: 1})
	}
	return out
}

// FuzzMeasuresFullRange checks Intervals, Recurrence, Erec and
// PeriodicAppearances on timestamps drawn from the whole int64 range
// against refIntervals, which shares no code with the measure layer.
func FuzzMeasuresFullRange(f *testing.F) {
	pair := make([]byte, 16)
	binary.LittleEndian.PutUint64(pair, uint64(0x8000000000000005)) // MinInt64+5
	binary.LittleEndian.PutUint64(pair[8:], uint64(math.MaxInt64-5))
	f.Add(pair, int64(10), 2)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}, int64(2), 1)
	f.Add([]byte{}, int64(1), 1)
	f.Fuzz(func(t *testing.T, data []byte, per int64, minPS int) {
		if per <= 0 {
			per = 1 + per&math.MaxInt64%1000
		}
		if minPS <= 0 || minPS > 1<<10 {
			minPS = 1
		}
		var ts []int64
		for ; len(data) >= 8; data = data[8:] {
			ts = append(ts, int64(binary.LittleEndian.Uint64(data)))
		}
		slices.Sort(ts)
		ts = slices.Compact(ts)

		want := refIntervals(ts, per)
		got := Intervals(ts, per)
		if len(got) != len(want) {
			t.Fatalf("Intervals(%v, %d): %d runs, reference %d", ts, per, len(got), len(want))
		}
		wantRec, wantErec, wantPA := 0, 0, 0
		var wantIPI []refInterval
		for i, w := range want {
			if g := got[i]; g.Start != w.start || g.End != w.end || g.PS != w.ps {
				t.Fatalf("Intervals(%v, %d)[%d] = %+v, reference %+v", ts, per, i, g, w)
			}
			wantErec += w.ps / minPS
			wantPA += w.ps - 1
			if w.ps >= minPS {
				wantRec++
				wantIPI = append(wantIPI, w)
			}
		}
		rec, ipi := Recurrence(ts, per, minPS)
		if rec != wantRec || len(ipi) != len(wantIPI) {
			t.Fatalf("Recurrence(%v, %d, %d) = %d, reference %d", ts, per, minPS, rec, wantRec)
		}
		for i, w := range wantIPI {
			if g := ipi[i]; g.Start != w.start || g.End != w.end || g.PS != w.ps {
				t.Fatalf("Recurrence interval %d = %+v, reference %+v", i, g, w)
			}
		}
		if got := Erec(ts, per, minPS); got != wantErec {
			t.Fatalf("Erec(%v, %d, %d) = %d, reference %d", ts, per, minPS, got, wantErec)
		}
		if got := PeriodicAppearances(ts, per); got != wantPA {
			t.Fatalf("PeriodicAppearances(%v, %d) = %d, reference %d", ts, per, got, wantPA)
		}
	})
}

package ext

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

func mustDB(t testing.TB, text string) *tsdb.DB {
	t.Helper()
	db, err := tsdb.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func randomDB(rng *rand.Rand, nItems, nTS int, density float64) *tsdb.DB {
	b := tsdb.NewBuilder()
	for ts := int64(1); ts <= int64(nTS); ts++ {
		for i := 0; i < nItems; i++ {
			if rng.Float64() < density {
				b.Add(string(rune('a'+i)), ts)
			}
		}
	}
	return b.Build()
}

func TestNoisyRecurrenceStrictEqualsCore(t *testing.T) {
	// With a zero noise budget the extension must reproduce the strict
	// model exactly.
	rng := rand.New(rand.NewPCG(1, 1))
	for run := 0; run < 200; run++ {
		var ts []int64
		cur := int64(0)
		for i := 0; i < rng.IntN(50); i++ {
			cur += rng.Int64N(9) + 1
			ts = append(ts, cur)
		}
		o := NoiseOptions{
			Options:     core.Options{Per: rng.Int64N(6) + 1, MinPS: rng.IntN(4) + 1, MinRec: 1},
			NoiseFactor: 3,
		}
		rec, ipi := NoisyRecurrence(ts, o)
		wantRec, wantIPI := core.Recurrence(ts, o.Per, o.MinPS)
		if rec != wantRec || !reflect.DeepEqual(ipi, wantIPI) {
			t.Fatalf("zero budget diverges from strict model: %v vs %v", ipi, wantIPI)
		}
	}
}

func TestNoisyRecurrenceBridgesGaps(t *testing.T) {
	// 1,2,3, (gap 4), 7,8,9: strict per=1 gives two runs of 3; one tolerated
	// violation (factor 4) bridges them into a single interval of 6.
	ts := []int64{1, 2, 3, 7, 8, 9}
	o := NoiseOptions{
		Options:       core.Options{Per: 1, MinPS: 3, MinRec: 1},
		MaxViolations: 1,
		NoiseFactor:   4,
	}
	rec, ipi := NoisyRecurrence(ts, o)
	if rec != 1 || len(ipi) != 1 || ipi[0] != (core.Interval{Start: 1, End: 9, PS: 6}) {
		t.Fatalf("got rec=%d ipi=%v, want one [1,9]:6", rec, ipi)
	}
	// The same gap is too wide at factor 2 (relaxed per = 2 < gap 4).
	o.NoiseFactor = 2
	rec, ipi = NoisyRecurrence(ts, o)
	if rec != 2 {
		t.Fatalf("factor 2 should keep two intervals, got %d (%v)", rec, ipi)
	}
	// Budget exhaustion: two gaps, one violation allowed.
	ts = []int64{1, 2, 3, 7, 8, 9, 13, 14, 15}
	o.NoiseFactor = 4
	rec, _ = NoisyRecurrence(ts, o)
	if rec != 2 {
		t.Fatalf("budget of 1 must split at the second gap, got %d", rec)
	}
	o.MaxViolations = 2
	rec, ipi = NoisyRecurrence(ts, o)
	if rec != 1 || ipi[0].PS != 9 {
		t.Fatalf("budget of 2 should bridge both gaps, got rec=%d ipi=%v", rec, ipi)
	}
}

// noisyBruteForce is the oracle for MineNoisy.
func noisyBruteForce(db *tsdb.DB, o NoiseOptions) []core.Pattern {
	all := db.ItemTSLists()
	var items []tsdb.ItemID
	for id, ts := range all {
		if len(ts) > 0 {
			items = append(items, tsdb.ItemID(id))
		}
	}
	var out []core.Pattern
	var grow func(start int, prefix []tsdb.ItemID, ts []int64)
	grow = func(start int, prefix []tsdb.ItemID, ts []int64) {
		for i := start; i < len(items); i++ {
			var ext []int64
			if len(prefix) == 0 {
				ext = all[items[i]]
			} else {
				ext = core.IntersectTS(nil, ts, all[items[i]])
			}
			if len(ext) == 0 {
				continue
			}
			next := append(prefix[:len(prefix):len(prefix)], items[i])
			rec, ipi := NoisyRecurrence(ext, o)
			if rec >= o.MinRec && (o.MaxLen == 0 || len(next) <= o.MaxLen) {
				cp := make([]tsdb.ItemID, len(next))
				copy(cp, next)
				out = append(out, core.Pattern{Items: cp, Support: len(ext), Recurrence: rec, Intervals: ipi})
			}
			grow(i+1, next, ext)
		}
	}
	grow(0, nil, nil)
	res := core.Result{Patterns: out}
	res.Canonicalize()
	return res.Patterns
}

func TestMineNoisyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for run := 0; run < 30; run++ {
		db := randomDB(rng, rng.IntN(5)+2, rng.IntN(60)+20, 0.25+rng.Float64()*0.3)
		if db.Len() == 0 {
			continue
		}
		o := NoiseOptions{
			Options:       core.Options{Per: rng.Int64N(4) + 1, MinPS: rng.IntN(3) + 2, MinRec: rng.IntN(2) + 1},
			MaxViolations: rng.IntN(3),
			NoiseFactor:   1 + 2*rng.Float64(),
		}
		got, err := MineNoisy(db, o)
		if err != nil {
			t.Fatal(err)
		}
		want := noisyBruteForce(db, o)
		if !reflect.DeepEqual(got.Patterns, want) {
			t.Fatalf("run %d (%+v): got %d patterns, want %d", run, o, len(got.Patterns), len(want))
		}
	}
}

func TestMineNoisySupersetOfStrict(t *testing.T) {
	// A noise budget can only add patterns, never remove them.
	rng := rand.New(rand.NewPCG(6, 6))
	for run := 0; run < 15; run++ {
		db := randomDB(rng, 5, 80, 0.3)
		base := core.Options{Per: 2, MinPS: 3, MinRec: 1}
		strict, err := core.Mine(db, base)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := MineNoisy(db, NoiseOptions{Options: base, MaxViolations: 2, NoiseFactor: 3})
		if err != nil {
			t.Fatal(err)
		}
		found := make(map[string]bool, len(noisy.Patterns))
		for _, p := range noisy.Patterns {
			found[keyOf(p.Items)] = true
		}
		for _, p := range strict.Patterns {
			if !found[keyOf(p.Items)] {
				t.Fatalf("strict pattern %v lost under noise tolerance", p.Items)
			}
		}
	}
}

func keyOf(items []tsdb.ItemID) string {
	var b strings.Builder
	for _, id := range items {
		b.WriteString(string(rune('0' + id)))
		b.WriteByte(',')
	}
	return b.String()
}

func TestMergeIntervals(t *testing.T) {
	ivs := []core.Interval{
		{Start: 1, End: 4, PS: 3},
		{Start: 7, End: 9, PS: 2},
		{Start: 20, End: 22, PS: 2},
	}
	got := MergeIntervals(ivs, 3)
	want := []core.Interval{{Start: 1, End: 9, PS: 5}, {Start: 20, End: 22, PS: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeIntervals = %v, want %v", got, want)
	}
	if MergeIntervals(nil, 3) != nil {
		t.Error("empty input should yield nil")
	}
	// Chain merging: all three coalesce at a large tolerance.
	got = MergeIntervals(ivs, 100)
	if len(got) != 1 || got[0].PS != 7 {
		t.Errorf("chain merge = %v", got)
	}
}

func TestShiftRecurrence(t *testing.T) {
	// Two dense runs 1-5 and 14-18 (phase shift of 9): strict per=1 sees two
	// intervals of 5; with tolerance 9 they merge into one of 10.
	ts := []int64{1, 2, 3, 4, 5, 14, 15, 16, 17, 18}
	base := core.Options{Per: 1, MinPS: 6, MinRec: 1}
	rec, _ := core.Recurrence(ts, base.Per, base.MinPS)
	if rec != 0 {
		t.Fatalf("strict rec = %d, want 0 (runs of 5 < minPS 6)", rec)
	}
	srec, ipi := ShiftRecurrence(ts, ShiftOptions{Options: base, ShiftTolerance: 9})
	if srec != 1 || len(ipi) != 1 || ipi[0].PS != 10 {
		t.Fatalf("shifted rec = %d ipi = %v, want one [1,18]:10", srec, ipi)
	}
	// Tolerance below the gap changes nothing.
	srec, _ = ShiftRecurrence(ts, ShiftOptions{Options: base, ShiftTolerance: 8})
	if srec != 0 {
		t.Fatalf("tolerance 8 should not bridge a gap of 9, got rec %d", srec)
	}
}

// shiftBruteForce is the oracle for MineShifted.
func shiftBruteForce(db *tsdb.DB, o ShiftOptions) []core.Pattern {
	all := db.ItemTSLists()
	var items []tsdb.ItemID
	for id, ts := range all {
		if len(ts) > 0 {
			items = append(items, tsdb.ItemID(id))
		}
	}
	var out []core.Pattern
	var grow func(start int, prefix []tsdb.ItemID, ts []int64)
	grow = func(start int, prefix []tsdb.ItemID, ts []int64) {
		for i := start; i < len(items); i++ {
			var ext []int64
			if len(prefix) == 0 {
				ext = all[items[i]]
			} else {
				ext = core.IntersectTS(nil, ts, all[items[i]])
			}
			if len(ext) == 0 {
				continue
			}
			next := append(prefix[:len(prefix):len(prefix)], items[i])
			rec, ipi := ShiftRecurrence(ext, o)
			if rec >= o.MinRec && (o.MaxLen == 0 || len(next) <= o.MaxLen) {
				cp := make([]tsdb.ItemID, len(next))
				copy(cp, next)
				out = append(out, core.Pattern{Items: cp, Support: len(ext), Recurrence: rec, Intervals: ipi})
			}
			grow(i+1, next, ext)
		}
	}
	grow(0, nil, nil)
	res := core.Result{Patterns: out}
	res.Canonicalize()
	return res.Patterns
}

func TestMineShiftedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for run := 0; run < 30; run++ {
		db := randomDB(rng, rng.IntN(5)+2, rng.IntN(60)+20, 0.25+rng.Float64()*0.3)
		if db.Len() == 0 {
			continue
		}
		o := ShiftOptions{
			Options:        core.Options{Per: rng.Int64N(4) + 1, MinPS: rng.IntN(3) + 2, MinRec: rng.IntN(2) + 1},
			ShiftTolerance: rng.Int64N(10),
		}
		got, err := MineShifted(db, o)
		if err != nil {
			t.Fatal(err)
		}
		want := shiftBruteForce(db, o)
		if !reflect.DeepEqual(got.Patterns, want) {
			t.Fatalf("run %d (%+v): got %d patterns, want %d", run, o, len(got.Patterns), len(want))
		}
	}
}

func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	for run := 0; run < 20; run++ {
		db := randomDB(rng, rng.IntN(5)+2, rng.IntN(80)+20, 0.3)
		if db.Len() == 0 {
			continue
		}
		per := rng.Int64N(4) + 1
		minPS := rng.IntN(3) + 1
		k := rng.IntN(6) + 1
		got, err := TopK(db, per, minPS, k)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: mine everything at minRec=1, sort by the top-k order.
		all, err := core.MineBruteForce(db, core.Options{Per: per, MinPS: minPS, MinRec: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]core.Pattern(nil), all.Patterns...)
		sort.Slice(want, func(i, j int) bool { return better(want[i], want[j]) })
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: got %d patterns, want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i].Recurrence != want[i].Recurrence {
				t.Fatalf("run %d rank %d: rec %d, want %d", run, i, got[i].Recurrence, want[i].Recurrence)
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	db := mustDB(t, "1\ta\n")
	for _, args := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := TopK(db, int64(args[0]), args[1], args[2]); err == nil {
			t.Errorf("TopK(%v) should fail", args)
		}
	}
}

func TestRulesAndRecommender(t *testing.T) {
	// Seasonal co-purchase: jackets+gloves recur in two winter windows;
	// sunscreen sells in summer.
	b := tsdb.NewBuilder()
	for ts := int64(1); ts <= 10; ts++ {
		b.Add("jackets", ts)
		if ts%2 == 0 {
			b.Add("gloves", ts)
		} else {
			b.Add("scarf", ts)
		}
	}
	for ts := int64(30); ts <= 40; ts++ {
		b.Add("sunscreen", ts)
	}
	for ts := int64(60); ts <= 70; ts++ {
		b.Add("jackets", ts)
		b.Add("gloves", ts)
	}
	db := b.Build()
	o := RuleOptions{
		Options:       core.Options{Per: 2, MinPS: 3, MinRec: 2},
		MinConfidence: 0.5,
	}
	rules, err := Rules(db, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules derived")
	}
	var jg *Rule
	for i := range rules {
		names := db.PatternNames(rules[i].Antecedent)
		if len(names) == 1 && names[0] == "gloves" && db.Dict.Name(rules[i].Consequent) == "jackets" {
			jg = &rules[i]
		}
	}
	if jg == nil {
		t.Fatal("rule gloves => jackets not found")
	}
	if jg.Confidence != 1.0 {
		t.Errorf("gloves => jackets confidence = %f, want 1.0", jg.Confidence)
	}

	rec := NewRecommender(db, rules)
	// In winter window: jackets recommended with gloves in the basket.
	got := rec.Recommend([]string{"gloves"}, 65, 5)
	found := false
	for _, r := range got {
		if r.Item == "jackets" {
			found = true
		}
	}
	if !found {
		t.Errorf("in-season recommendation missing jackets: %+v", got)
	}
	// Out of season (summer): the winter rule must not fire.
	got = rec.Recommend([]string{"gloves"}, 35, 5)
	for _, r := range got {
		if r.Item == "jackets" {
			t.Errorf("out-of-season recommendation leaked: %+v", got)
		}
	}
	// Items already held are not recommended.
	got = rec.Recommend([]string{"gloves", "jackets"}, 65, 5)
	for _, r := range got {
		if r.Item == "jackets" || r.Item == "gloves" {
			t.Errorf("recommended an item already in the basket: %+v", got)
		}
	}
}

func TestRuleOptionsValidate(t *testing.T) {
	bad := RuleOptions{Options: core.Options{Per: 1, MinPS: 1, MinRec: 1}, MinConfidence: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("MinConfidence > 1 should fail validation")
	}
	if _, err := Rules(mustDB(t, "1\ta\n"), bad); err == nil {
		t.Error("Rules must reject invalid options")
	}
	if _, err := MineNoisy(mustDB(t, "1\ta\n"), NoiseOptions{MaxViolations: -1, Options: core.Options{Per: 1, MinPS: 1, MinRec: 1}}); err == nil {
		t.Error("MineNoisy must reject negative budget")
	}
	if _, err := MineShifted(mustDB(t, "1\ta\n"), ShiftOptions{ShiftTolerance: -1, Options: core.Options{Per: 1, MinPS: 1, MinRec: 1}}); err == nil {
		t.Error("MineShifted must reject negative tolerance")
	}
}

func TestNoisyRecurrenceExtremeGap(t *testing.T) {
	// The gap between these timestamps is 2^64-11; as an int64 difference
	// it wraps to -11, which would pass both the strict and the relaxed
	// period test. A huge NoiseFactor must not wrap the relaxed period.
	ts := []int64{-9223372036854775803, 9223372036854775802}
	for _, factor := range []float64{1, 3, 1e30} {
		o := NoiseOptions{
			Options:       core.Options{Per: 10, MinPS: 2, MinRec: 1},
			MaxViolations: 1,
			NoiseFactor:   factor,
		}
		if rec, ipi := NoisyRecurrence(ts, o); rec != 0 {
			t.Errorf("factor %g: rec=%d ipi=%v, want no interval", factor, rec, ipi)
		}
	}
}

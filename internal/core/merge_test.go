package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// mergeOracle is the representation the merge path replaced: concatenate
// every run and re-sort. For int64 multisets the two are interchangeable, so
// merge must reproduce it exactly.
func mergeOracle(runs [][]int64) []int64 {
	var all []int64
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.Sort(all)
	if all == nil {
		all = []int64{}
	}
	return all
}

// randomRuns builds k sorted runs with lengths in [0, maxLen) and values in
// [1, maxTS], duplicates across (and within) runs allowed.
func randomRuns(rng *rand.Rand, k, maxLen int, maxTS int64) [][]int64 {
	runs := make([][]int64, k)
	for i := range runs {
		n := rng.IntN(maxLen)
		r := make([]int64, n)
		for j := range r {
			r[j] = rng.Int64N(maxTS) + 1
		}
		slices.Sort(r)
		runs[i] = r
	}
	return runs
}

func mergeRuns(ms *mergeScratch, runs [][]int64) []int64 {
	views := ms.runs[:0]
	for _, r := range runs {
		views = append(views, run{s: r})
	}
	ms.runs = views
	out := ms.merge(nil)
	if out == nil {
		out = []int64{}
	}
	return out
}

func TestMergeMatchesConcatAndSort(t *testing.T) {
	var ms mergeScratch
	rng := rand.New(rand.NewPCG(7, 11))
	// Cover the fast paths (0, 1, 2 runs) and the k-way heap explicitly.
	for k := 0; k <= 9; k++ {
		for trial := 0; trial < 200; trial++ {
			runs := randomRuns(rng, k, 12, 30)
			want := mergeOracle(runs)
			got := mergeRuns(&ms, runs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d trial=%d: merge = %v, want %v (runs %v)", k, trial, got, want, runs)
			}
			if len(ms.runs) != 0 {
				t.Fatalf("mergeScratch.runs not reset: %d entries left", len(ms.runs))
			}
		}
	}
}

func TestMergeIntoRecycledBuffer(t *testing.T) {
	// merge must honour dst's existing capacity and never read stale
	// contents: fill a buffer with poison, recycle it, and compare.
	var ms mergeScratch
	rng := rand.New(rand.NewPCG(3, 9))
	poison := make([]int64, 0, 256)
	for i := 0; i < cap(poison); i++ {
		poison = append(poison, -1)
	}
	for trial := 0; trial < 100; trial++ {
		runs := randomRuns(rng, 1+rng.IntN(6), 10, 25)
		want := mergeOracle(runs)
		got := mergeRuns(&ms, runs)
		_ = append(poison[:0], got...) // unrelated reuse must not disturb results
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge = %v, want %v", trial, got, want)
		}
	}
}

func TestAppendRunViewsSplitsRunList(t *testing.T) {
	var ms mergeScratch
	// ts = three runs: [1 4 7 | 2 5 | 9]; boundaries after indexes 3 and 5.
	ts := []int64{1, 4, 7, 2, 5, 9}
	bounds := []int32{3, 5}
	views := appendRunViews(ms.runs[:0], ts, bounds)
	if len(views) != 3 {
		t.Fatalf("got %d views, want 3", len(views))
	}
	want := [][]int64{{1, 4, 7}, {2, 5}, {9}}
	for i, v := range views {
		if !reflect.DeepEqual(v.s, want[i]) {
			t.Errorf("view %d = %v, want %v", i, v.s, want[i])
		}
	}
	// Single-run list: one view covering everything.
	views = appendRunViews(ms.runs[:0], ts[:3], nil)
	if len(views) != 1 || !reflect.DeepEqual(views[0].s, []int64{1, 4, 7}) {
		t.Errorf("single-run views = %+v", views)
	}
	// Empty list: no views.
	if views = appendRunViews(ms.runs[:0], nil, nil); len(views) != 0 {
		t.Errorf("empty list produced %d views", len(views))
	}
}

func TestAppendRunCoalescesAscending(t *testing.T) {
	var n rpNode
	n.appendRun([]int64{1, 3})
	n.appendRun([]int64{5, 8}) // ascending continuation: same run
	if len(n.runs) != 0 {
		t.Fatalf("ascending append split the run: bounds %v", n.runs)
	}
	n.appendRun([]int64{2, 9}) // 2 < 8: new run boundary
	if len(n.runs) != 1 || n.runs[0] != 4 {
		t.Fatalf("descending append bounds = %v, want [4]", n.runs)
	}
	if !reflect.DeepEqual(n.tids, []int64{1, 3, 5, 8, 2, 9}) {
		t.Fatalf("tids = %v", n.tids)
	}
}

func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 2, 9, 9}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		nRuns := int(k%8) + 1
		runs := make([][]int64, nRuns)
		for i, b := range data {
			v := int64(b)
			runs[i%nRuns] = append(runs[i%nRuns], v)
		}
		for i := range runs {
			slices.Sort(runs[i])
		}
		var ms mergeScratch
		got := mergeRuns(&ms, runs)
		want := mergeOracle(runs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge = %v, want %v (runs %v)", got, want, runs)
		}
	})
}

func TestMinerArenaReuse(t *testing.T) {
	// Two consecutive mines on the same miner state (as the worker pool
	// does rank after rank) must produce identical results: the arena reset
	// and scratch recycling may not leak state between runs.
	rng := rand.New(rand.NewPCG(21, 4))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 6, 40, 0.35)
		o := Options{Per: 3, MinPS: 2, MinRec: 2}
		list := BuildRPList(db, o)
		if len(list.Candidates) == 0 {
			continue
		}

		fresh, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}

		var m miner
		m.o = o
		var results []*Result
		for round := 0; round < 2; round++ {
			tree := buildRPTree(db, list)
			res := &Result{}
			m.res = res
			m.mineTree(tree, nil, 1)
			res.Canonicalize()
			results = append(results, res)
			m.arena.reset(0)
		}
		for i, res := range results {
			if renderResult(res) != renderResult(fresh) {
				t.Fatalf("trial %d round %d: reused miner diverged\nreused:\n%s\nfresh:\n%s",
					trial, i, renderResult(res), renderResult(fresh))
			}
		}
	}
}

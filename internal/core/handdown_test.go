package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/tsdb"
)

// Invariants of the hand-down rule: conditionalTree builds each kept prefix
// item's ts-list once and hands it down; the child tree's mineRank reads it
// as TS^beta.

// condTree builds the initial tree's rank r conditional tree from the input
// mineRank gives it: TS^beta, the rank's posting list.
func condTree(t *rpTree, arena *nodeArena, sc *mineScratch, o Options, r int) *rpTree {
	beta, _ := t.post.rank(r)
	return t.conditionalTree(arena, sc, o, r, beta)
}

// scanTids returns the sorted indexes of the transactions of db containing
// every item of pattern: the reference TS^pattern, read from the database
// alone.
func scanTids(db *tsdb.DB, pattern []tsdb.ItemID) []int64 {
	var tids []int64
	for tid, tr := range db.Trans {
		all := true
		for _, it := range pattern {
			if _, found := slices.BinarySearch(tr.Items, it); !found {
				all = false
				break
			}
		}
		if all {
			tids = append(tids, int64(tid))
		}
	}
	return tids
}

// handDownOptions is a spread of thresholds over which the random-DB checks
// run: tight and loose Erec pruning, the pruning ablation and the
// lexicographic item order.
func handDownOptions() []Options {
	return []Options{
		{Per: 3, MinPS: 2, MinRec: 2},
		{Per: 2, MinPS: 3, MinRec: 1},
		{Per: 5, MinPS: 4, MinRec: 3},
		{Per: 3, MinPS: 2, MinRec: 2, DisableErecPruning: true},
		{Per: 3, MinPS: 2, MinRec: 2, ItemOrder: Lexicographic},
	}
}

// checkHandedDown walks ct, the conditional tree of suffix, bottom-up the
// way mineTree does and requires every handed-down list to equal the tids
// of the transactions containing suffix plus that rank's item; it recurses
// into conditional trees up to maxDepth levels. It returns the number of
// lists checked.
func checkHandedDown(t *testing.T, db *tsdb.DB, ct *rpTree, suffix []tsdb.ItemID, arena *nodeArena, sc *mineScratch, o Options, depth, maxDepth int) int {
	t.Helper()
	if ct.held < 0 || ct.post != nil {
		t.Fatalf("conditional tree at depth %d has no handed-down lists", depth)
	}
	checked := 0
	for cr := len(ct.order) - 1; cr >= 0; cr-- {
		beta := append(slices.Clip(suffix), ct.order[cr])
		handed := sc.held.list(ct.held + cr)
		if want := scanTids(db, beta); !slices.Equal(handed, want) {
			t.Fatalf("depth %d rank %d: handed down %v, the database has %v", depth, cr, handed, want)
		}
		if len(handed) == 0 || o.candidateErec(gatherTS(nil, handed, ct.tsOf)) < o.MinRec {
			t.Fatalf("depth %d rank %d: handed-down list fails the candidate check", depth, cr)
		}
		checked++
		if depth < maxDepth {
			mark, held := arena.mark(), sc.held.mark()
			if child := ct.conditionalTree(arena, sc, o, cr, handed); child != nil {
				checked += checkHandedDown(t, db, child, beta, arena, sc, o, depth+1, maxDepth)
			}
			arena.reset(mark)
			sc.held.reset(held)
		}
		ct.pushUp(cr)
	}
	return checked
}

func TestHandedDownListsMatchChildCollect(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 4))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 3+rng.IntN(6), 20+rng.IntN(60), 0.25+rng.Float64()*0.5)
		for _, o := range handDownOptions() {
			list := BuildRPList(db, o)
			if len(list.Candidates) == 0 {
				continue
			}
			tree := buildRPTree(db, list)
			var arena nodeArena
			var sc mineScratch
			for r := len(tree.order) - 1; r >= 0; r-- {
				if ct := condTree(tree, &arena, &sc, o, r); ct != nil {
					checked += checkHandedDown(t, db, ct, tree.order[r:r+1], &arena, &sc, o, 1, 3)
				}
				arena.reset(0)
				sc.held.reset(tsMark{})
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d handed-down lists checked; the workload is too sparse", checked)
	}
}

func TestErecBoundedBySupport(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 2000; i++ {
		ts := randomTS(rng, 60, 200)
		per := 1 + rng.Int64N(10)
		minPS := 1 + rng.IntN(6)
		if erec := Erec(ts, per, minPS); erec > len(ts)/minPS {
			t.Fatalf("Erec(%v, %d, %d) = %d > len/minPS = %d", ts, per, minPS, erec, len(ts)/minPS)
		}
		for _, disable := range []bool{false, true} {
			o := Options{Per: per, MinPS: minPS, MinRec: 1 + rng.IntN(4), DisableErecPruning: disable}
			if !o.supportMayRecur(len(ts)) && o.candidateErec(ts) >= o.MinRec {
				t.Fatalf("%+v: support bound rejects %v, which passes the candidate check", o, ts)
			}
			if disable && o.supportMayRecur(len(ts)) != (o.candidateErec(ts) >= o.MinRec) {
				t.Fatalf("%+v: with pruning disabled the support bound must decide alone", o)
			}
		}
	}
}

// deepStopDB is a dense random database whose mine emits patterns of
// length two and more, so stopping on one leaves the conditional tree it
// came from holding the handed-down lists of its unvisited ranks.
func deepStopDB() (*tsdb.DB, Options) {
	rng := rand.New(rand.NewPCG(5, 9))
	return randomDB(rng, 8, 200, 0.5), Options{Per: 2, MinPS: 3, MinRec: 2}
}

// firstDeepPattern returns the index in the MineFunc sequence of the first
// pattern emitted from a conditional tree with unvisited ranks left.
func firstDeepPattern(t *testing.T, seq []Pattern) int {
	t.Helper()
	for i, p := range seq {
		if len(p.Items) >= 2 && i+1 < len(seq) && len(seq[i+1].Items) >= 2 {
			return i
		}
	}
	t.Fatal("no pattern of length >= 2 in the sequence")
	return -1
}

func TestMineFuncStopsWithUnconsumedHandedLists(t *testing.T) {
	db, o := deepStopDB()
	var full []Pattern
	if err := MineFunc(db, o, func(p Pattern) bool { full = append(full, p); return true }); err != nil {
		t.Fatal(err)
	}
	k := firstDeepPattern(t, full)

	// Early stop from the callback, driven through a miner so the stacks
	// can be inspected afterwards.
	tree := buildRPTree(db, BuildRPList(db, o))
	m := newMiner(o)
	var got []Pattern
	heldAtStop := 0
	m.fn = func(p Pattern) bool {
		got = append(got, p)
		heldAtStop = len(m.sc.held.spans)
		return len(got) <= k
	}
	m.mineTree(tree, nil, 1)
	if heldAtStop == 0 {
		t.Fatal("the stop came with no handed-down lists on the stack")
	}
	if !m.stop {
		t.Fatal("miner did not stop")
	}
	if fmt.Sprint(got) != fmt.Sprint(full[:k+1]) {
		t.Fatalf("early stop delivered %v, want %v", got, full[:k+1])
	}
	if len(m.sc.held.buf) != 0 || len(m.sc.held.spans) != 0 || len(m.arena.nodes) != 0 {
		t.Fatalf("stacks not reset after the stop: %d list elements, %d spans, %d nodes",
			len(m.sc.held.buf), len(m.sc.held.spans), len(m.arena.nodes))
	}

	// Cancellation from the callback: the miner observes ctx at the next
	// rank, inside the conditional tree that still holds its lists.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got = got[:0]
	err := MineFuncContext(ctx, db, o, func(p Pattern) bool {
		got = append(got, p)
		if len(got) == k+1 {
			cancel()
		}
		return true
	})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled MineFuncContext returned %v, want *CancelError", err)
	}
	if len(got) < k+1 || fmt.Sprint(got) != fmt.Sprint(full[:len(got)]) {
		t.Fatalf("cancelled run delivered %d patterns, not a prefix of the full %d past %d", len(got), len(full), k+1)
	}
}

func TestMineContextCancelMidRunHandedLists(t *testing.T) {
	// The benchmark workload: deep enough conditional trees, and a mine
	// long enough (tens of milliseconds) for the cancels to land mid-run.
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	want, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, par := range []int{1, 2, 4} {
		o.Parallelism = par
		for delay := time.Duration(0); delay <= 2*time.Millisecond; delay += 500 * time.Microsecond {
			ctx, cancel := context.WithCancel(context.Background())
			go func() { time.Sleep(delay); cancel() }()
			res, err := MineContext(ctx, db, o)
			cancel()
			var ce *CancelError
			switch {
			case err == nil:
				if !res.Equal(want) {
					t.Fatalf("parallelism %d: a run that finished differs from the full mine", par)
				}
			case !errors.As(err, &ce):
				t.Fatalf("parallelism %d: %v, want *CancelError", par, err)
			default:
				cancelled++
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("no run was cancelled mid-run")
	}
}

// TestAblationAndMaxLenMatchVertical pins the pruning ablation and MaxLen,
// the two options that change which lists conditionalTree builds, against
// MineVertical through every RP-growth path.
func TestAblationAndMaxLenMatchVertical(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 11))
	for trial := 0; trial < 12; trial++ {
		db := randomDB(rng, 4+rng.IntN(5), 40+rng.IntN(80), 0.3+rng.Float64()*0.4)
		for _, o := range []Options{
			{Per: 3, MinPS: 2, MinRec: 2, DisableErecPruning: true},
			{Per: 2, MinPS: 2, MinRec: 1, DisableErecPruning: true, MaxLen: 2},
			{Per: 3, MinPS: 2, MinRec: 2, MaxLen: 1},
			{Per: 3, MinPS: 3, MinRec: 2, MaxLen: 3},
			{Per: 4, MinPS: 2, MinRec: 3, MaxLen: 2, ItemOrder: Lexicographic},
		} {
			want, err := MineVertical(db, o)
			if err != nil {
				t.Fatal(err)
			}
			wantText := fmt.Sprint(want.Patterns)
			check := func(path string, got *Result) {
				t.Helper()
				if gotText := fmt.Sprint(got.Patterns); gotText != wantText {
					t.Fatalf("trial %d %+v: %s output differs from MineVertical:\n%s\nwant\n%s", trial, o, path, gotText, wantText)
				}
			}
			for _, par := range []int{1, 3} {
				o := o
				o.Parallelism = par
				res, err := Mine(db, o)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("parallelism %d", par), res)
			}
			var parts []*Result
			for i := 0; i < 3; i++ {
				res, err := MineShardContext(context.Background(), db, o, ShardSpec{Index: i, Count: 3})
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, res)
			}
			check("MineShardContext", mergeShards(parts))
		}
	}
}

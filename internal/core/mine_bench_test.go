package core

import (
	"math/rand/v2"
	"testing"

	"github.com/recurpat/rp/internal/obs"
)

// benchWorkload is a mid-size synthetic workload for the hot-path benchmarks
// (internal/bench would be an import cycle here): dense enough that
// conditional trees go several levels deep, with the thresholds scaled so a
// few hundred patterns survive. Deterministic by construction, so ns/op and
// allocs/op are comparable across runs; BENCH_core.json tracks them.
func benchWorkload() (Options, *rpTree) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	list := BuildRPList(db, o)
	return o, buildRPTree(db, list)
}

func BenchmarkBuildRPTree(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	list := BuildRPList(db, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := buildRPTree(db, list)
		if tree.nodes == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkPostingSplit measures the initial tree's share of the Section
// 4.2.3 temporary arrays: for every rank, the counting pass that builds the
// base paths and labels owners, then the split of the rank's postings into
// per-path lists.
func BenchmarkPostingSplit(b *testing.B) {
	_, tree := benchWorkload()
	var sc mineScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		split := 0
		for r := len(tree.order) - 1; r >= 0; r-- {
			owner := growN(&sc.owner, len(tree.tsOf))
			tree.basePostings(&sc, r, owner)
			tree.splitPostings(&sc, r, owner)
			split += len(sc.base)
		}
		if split == 0 {
			b.Fatal("no base paths")
		}
	}
}

// BenchmarkConditionalTree measures construction from the initial tree, as
// every miner runs it: TS^beta is the rank's posting list, and the split
// happens inside conditionalTree when a tree is built.
func BenchmarkConditionalTree(b *testing.B) {
	o, tree := benchWorkload()
	var arena nodeArena
	var sc mineScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built := 0
		for r := len(tree.order) - 1; r >= 1; r-- {
			mark, held := arena.mark(), sc.held.mark()
			if ct := condTree(tree, &arena, &sc, o, r); ct != nil {
				built++
			}
			arena.reset(mark)
			sc.held.reset(held)
		}
		if built == 0 {
			b.Fatal("no conditional trees built")
		}
	}
}

// BenchmarkConditionalTreeNested measures construction from a conditional
// tree: rank c's tree is built from node lists after the push-ups of every
// deeper rank, with its handed-down list as TS^beta. conditionalTree does
// not mutate the tree it reads, so the first-level trees and their push-ups
// are prepared once, outside the timer, in an arena of their own.
func BenchmarkConditionalTreeNested(b *testing.B) {
	o, tree := benchWorkload()
	type level struct {
		ct *rpTree
		c  int
	}
	var levels []level
	var outer nodeArena
	var sc mineScratch
	for r := len(tree.order) - 1; r >= 0; r-- {
		for c := ctLen(condTree(tree, &outer, &sc, o, r)) - 1; c >= 1; c-- {
			// Each level gets its own copy, pushed up past c.
			ct := condTree(tree, &outer, &sc, o, r)
			for d := len(ct.order) - 1; d > c; d-- {
				ct.pushUp(d)
			}
			levels = append(levels, level{ct, c})
		}
	}
	if len(levels) == 0 {
		b.Fatal("no nested conditional trees")
	}
	var arena nodeArena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range levels {
			mark, held := arena.mark(), sc.held.mark()
			l.ct.conditionalTree(&arena, &sc, o, l.c, sc.held.list(l.ct.held+l.c))
			arena.reset(mark)
			sc.held.reset(held)
		}
	}
}

func BenchmarkMineEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(db, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

func BenchmarkMineEndToEndParallel(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2, Parallelism: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(db, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkMineEndToEndTraced is BenchmarkMineEndToEnd with a phase trace
// attached: its ns/op measures the tracing overhead on the same workload
// (Options.Trace == nil stays the untraced baseline above), and its
// reported "<phase>-ns/op" / "<phase>-count/op" metrics carry the phase
// attribution into BENCH_core.json via make bench-core.
func BenchmarkMineEndToEndTraced(b *testing.B) {
	rng := rand.New(rand.NewPCG(17, 3))
	db := randomDB(rng, 14, 2000, 0.28)
	o := Options{Per: 4, MinPS: 3, MinRec: 2, Trace: obs.NewTrace()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(db, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
	b.StopTimer()
	for k, v := range o.Trace.Report().BenchMetrics() {
		b.ReportMetric(v, k)
	}
}

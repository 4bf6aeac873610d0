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

func BenchmarkCollectTS(b *testing.B) {
	_, tree := benchWorkload()
	var ms mergeScratch
	// Mix of tail-only collection (fresh tree) and merge-heavy collection
	// (after push-ups), like a mining run sees.
	for r := len(tree.order) - 1; r > len(tree.order)/2; r-- {
		tree.pushUp(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := len(tree.order) / 2; r >= 0; r-- {
			ts := tree.collectTS(&ms, r, ms.getBuf())
			if len(ts) == 0 {
				b.Fatal("empty ts")
			}
			ms.putBuf(ts)
		}
	}
}

// BenchmarkConditionalTree measures subtree-mode construction, as the
// parallel and shard miners run it: each rank's per-node subtree lists are
// collected once, their union is TS^beta, and both go to conditionalTree.
func BenchmarkConditionalTree(b *testing.B) {
	o, tree := benchWorkload()
	var arena nodeArena
	var ms mergeScratch
	var nodeTS [][]int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built := 0
		for r := len(tree.order) - 1; r >= 1; r-- {
			mark, held := arena.mark(), ms.held.mark()
			nodeTS = tree.collectNodeTS(&ms, r, nodeTS[:0])
			beta, pooled := ms.union(nodeTS)
			if ct := tree.conditionalTree(&arena, &ms, o, r, beta, nodeTS); ct != nil {
				built++
			}
			if pooled {
				ms.putBuf(beta)
			}
			ms.putBufs(nodeTS)
			arena.reset(mark)
			ms.held.reset(held)
		}
		if built == 0 {
			b.Fatal("no conditional trees built")
		}
	}
}

// BenchmarkConditionalTreeSequential measures the sequential miner's
// construction: rank r's conditional tree is built from node lists after
// the push-ups of every deeper rank. conditionalTree does not mutate the
// tree it reads, so one pushed-up tree per rank, and its TS^beta, are
// prepared outside the timer.
func BenchmarkConditionalTreeSequential(b *testing.B) {
	o, tree := benchWorkload()
	pushed := make([]*rpTree, len(tree.order))
	betas := make([][]int64, len(tree.order))
	var ms mergeScratch
	for r := len(tree.order) - 1; r >= 0; r-- {
		_, t := benchWorkload()
		for d := len(t.order) - 1; d > r; d-- {
			t.pushUp(d)
		}
		pushed[r], betas[r] = t, t.collectTS(&ms, r, nil)
	}
	var arena nodeArena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built := 0
		for r := len(tree.order) - 1; r >= 1; r-- {
			mark, held := arena.mark(), ms.held.mark()
			if ct := pushed[r].conditionalTree(&arena, &ms, o, r, betas[r], nil); ct != nil {
				built++
			}
			arena.reset(mark)
			ms.held.reset(held)
		}
		if built == 0 {
			b.Fatal("no conditional trees built")
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

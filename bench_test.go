package rp

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus the ablation benches DESIGN.md calls out. Benchmarks run on reduced
// instances of the same workload distributions (see internal/bench for the
// full-scale harness used by EXPERIMENTS.md); thresholds are scaled to keep
// the per-op work representative of one cell of the corresponding table.

import (
	"testing"

	"github.com/recurpat/rp/internal/baseline/partial"
	"github.com/recurpat/rp/internal/baseline/ppattern"
	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/ext"
	"github.com/recurpat/rp/internal/gen"
)

// benchDataset loads a reduced benchmark instance, failing the benchmark on
// error. Scales mirror internal/bench's test scales.
func benchDataset(b *testing.B, name string, scale float64) *bench.Dataset {
	b.Helper()
	d, err := bench.Load(name, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func mineOnce(b *testing.B, d *bench.Dataset, o core.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(d.DB, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Patterns)), "patterns")
		}
	}
}

// Table 5 / Table 7 — one representative cell per dataset (counts and
// runtime come from the same mining call; Table 5 reports the former,
// Table 7 the latter).

func BenchmarkTable5T10I4D100K(b *testing.B) {
	d := benchDataset(b, "t10i4d100k", 0.05)
	mineOnce(b, d, core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 1.0), MinRec: 1})
}

func BenchmarkTable5Shop14(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 2.0), MinRec: 1})
}

func BenchmarkTable5Twitter(b *testing.B) {
	d := benchDataset(b, "twitter", 0.05)
	mineOnce(b, d, core.Options{Per: 360, MinPS: core.MinPSFromPercent(d.DB, 15), MinRec: 1})
}

func BenchmarkTable7T10I4D100K(b *testing.B) {
	d := benchDataset(b, "t10i4d100k", 0.05)
	mineOnce(b, d, core.Options{Per: 1440, MinPS: core.MinPSFromPercent(d.DB, 0.5), MinRec: 2})
}

func BenchmarkTable7Shop14(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 1440, MinPS: core.MinPSFromPercent(d.DB, 2.5), MinRec: 2})
}

// BenchmarkTable7Shop14Parallel is the Shop-14 cell mined by two workers,
// the shape rpserved's cold mines run in.
func BenchmarkTable7Shop14Parallel(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 1440, MinPS: core.MinPSFromPercent(d.DB, 2.5), MinRec: 2, Parallelism: 2})
}

func BenchmarkTable7Twitter(b *testing.B) {
	d := benchDataset(b, "twitter", 0.05)
	mineOnce(b, d, core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 10), MinRec: 2})
}

// Figures 7 and 9 — the minPS sweep at each per (counts and runtimes).

func BenchmarkFigure7Sweep(b *testing.B) {
	d := benchDataset(b, "twitter", 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := bench.Sweep(d, 12, 20, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0
			for _, p := range points {
				total += p.Count
			}
			b.ReportMetric(float64(total), "patterns")
		}
	}
}

func BenchmarkFigure9Sweep(b *testing.B) {
	// Figure 9 is the runtime view of the same sweep; benchmark one
	// representative high-cost point (per=1440).
	d := benchDataset(b, "twitter", 0.05)
	mineOnce(b, d, core.Options{Per: 1440, MinPS: core.MinPSFromPercent(d.DB, 12), MinRec: 1})
}

// Table 6 — event-story extraction; Figure 8 — daily frequency series.

func BenchmarkTable6Events(b *testing.B) {
	d := benchDataset(b, "twitter", 0.15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table6(d, 6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "events")
		}
	}
}

func BenchmarkFigure8Daily(b *testing.B) {
	d := benchDataset(b, "twitter", 0.15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series := bench.Figure8(d)
		if len(series) != 4 {
			b.Fatal("missing series")
		}
	}
}

// Table 8 — the three-model comparison.

func BenchmarkTable8Shop14(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	o := bench.DefaultTable8Options(d.Name)
	o.SupPercent *= 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table8(d, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[2].Count), "ppatterns")
		}
	}
}

func BenchmarkTable8Twitter(b *testing.B) {
	d := benchDataset(b, "twitter", 0.05)
	o := bench.DefaultTable8Options(d.Name)
	o.SupPercent *= 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table8(d, o); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations (DESIGN.md Section 3).

func BenchmarkAblationPruningOn(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 360, MinPS: core.MinPSFromPercent(d.DB, 1.0), MinRec: 2})
}

func BenchmarkAblationPruningOff(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 360, MinPS: core.MinPSFromPercent(d.DB, 1.0), MinRec: 2,
		DisableErecPruning: true})
}

func BenchmarkAblationTree(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 2.0), MinRec: 1})
}

func BenchmarkAblationVertical(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	o := core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 2.0), MinRec: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.MineVertical(d.DB, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOrderSupportDesc(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 2.0), MinRec: 1,
		ItemOrder: core.SupportDescending})
}

func BenchmarkAblationOrderLexicographic(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	mineOnce(b, d, core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 2.0), MinRec: 1,
		ItemOrder: core.Lexicographic})
}

func BenchmarkAblationSequential(b *testing.B) {
	d := benchDataset(b, "twitter", 0.05)
	mineOnce(b, d, core.Options{Per: 360, MinPS: core.MinPSFromPercent(d.DB, 15), MinRec: 1})
}

func BenchmarkAblationParallel(b *testing.B) {
	d := benchDataset(b, "twitter", 0.05)
	mineOnce(b, d, core.Options{Per: 360, MinPS: core.MinPSFromPercent(d.DB, 15), MinRec: 1,
		Parallelism: 8})
}

// Micro-benchmarks for the building blocks.

func BenchmarkRPListScan(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	o := core.Options{Per: 720, MinPS: core.MinPSFromPercent(d.DB, 1.0), MinRec: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.BuildRPList(d.DB, o)
	}
}

func BenchmarkRecurrenceScan(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	lists := d.DB.ItemTSLists()
	var longest []int64
	for _, ts := range lists {
		if len(ts) > len(longest) {
			longest = ts
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Recurrence(longest, 360, 50)
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.Twitter(gen.DefaultTwitter(uint64(i)).Scale(0.02))
	}
}

func BenchmarkTopK(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	minPS := core.MinPSFromPercent(d.DB, 1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ext.TopK(d.DB, 720, minPS, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPatternVariants quantifies the paper's claim that the
// periodic-first p-pattern algorithm is faster than association-first.

func BenchmarkPPatternPeriodicFirst(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	o := ppattern.Options{Per: 1440, Window: 1, MinSup: core.MinPSFromPercent(d.DB, 3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ppattern.Mine(d.DB, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPPatternAssociationFirst(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	o := ppattern.Options{Per: 1440, Window: 1, MinSup: core.MinPSFromPercent(d.DB, 3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ppattern.MineAssociationFirst(d.DB, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartialPeriodic covers the symbolic-sequence comparator (Han et
// al. max-subpattern hit set) on the clickstream data with a daily period.

func BenchmarkPartialPeriodic(b *testing.B) {
	d := benchDataset(b, "shop14", 0.25)
	o := partial.Options{Period: 24, MinSup: d.DB.Len() / 24 / 4, MaxSlotItems: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := partial.Mine(d.DB, o); err != nil {
			b.Fatal(err)
		}
	}
}

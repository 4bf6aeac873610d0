package main

import (
	"bytes"
	"fmt"

	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/gen"
	"github.com/recurpat/rp/internal/tsdb"
)

// served are the paper's datasets at the scales the repository's Table 7
// benchmarks use, generated inside rpserved by -dataset. The generator seed
// is fixed: the benchmark seed only draws keys and arrivals, so the pinned
// answer digests stay valid for every seed.
var served = []servedDataset{
	{Name: "shop14", Scale: 0.25},
	{Name: "t10i4d100k", Scale: 0.2},
	{Name: "twitter", Scale: 0.05},
}

type servedDataset struct {
	Name  string
	Scale float64
}

// flag renders the dataset as an rpserved -dataset value.
func (d servedDataset) flag() string { return fmt.Sprintf("%s:%g:1", d.Name, d.Scale) }

// load generates the dataset in-process (traced runs and pinning only).
func (d servedDataset) load() (*tsdb.DB, error) {
	ds, err := bench.Load(d.Name, d.Scale, 1)
	if err != nil {
		return nil, err
	}
	return ds.DB, nil
}

// cell is one threshold setting on one dataset. MinPS is absolute; the
// paper's percentages of |TDB| are converted where the cells are defined.
type cell struct {
	DS     string
	Per    int64
	MinPS  int
	MinRec int
}

func (c cell) String() string {
	return fmt.Sprintf("%s/per=%d/minPS=%d/minRec=%d", c.DS, c.Per, c.MinPS, c.MinRec)
}

// at returns the cell with minPS raised by d: one step of a threshold sweep.
func (c cell) at(d int) cell { c.MinPS += d; return c }

// sweep is a run of fresh keys stepping up from a paper cell: the run
// starts at a seeded offset below Offsets and takes consecutive minPS
// values, so no key repeats within a run and every key lies in the pinned
// universe Base.MinPS .. Base.MinPS+Offsets+Steps-1.
type sweep struct {
	Base    cell
	Offsets int
	Steps   int
	// PerRound is how many keys each closed-loop round draws from the
	// sweep. It is even, so that parallelism, which alternates from
	// request to request, takes both values equally often in the sweep.
	PerRound int
}

func (s sweep) universe() []cell {
	out := make([]cell, s.Offsets+s.Steps)
	for i := range out {
		out[i] = s.Base.at(i)
	}
	return out
}

// Paper cells. minPS values are the Table 7 / Table 5 percentages of the
// scaled |TDB| used by the repository's root benchmarks (shop14 |TDB| =
// 13818, t10i4d100k = 20000, twitter = 8640).
var (
	// Table 7 Shop-14 cell: per=1440, minPS=2.5%, minRec=2 (234 patterns).
	shopT7 = cell{DS: "shop14", Per: 1440, MinPS: 345, MinRec: 2}
	// Table 7 T10I4D100K cell: per=1440, minPS=0.5%, minRec=2.
	t10T7 = cell{DS: "t10i4d100k", Per: 1440, MinPS: 100, MinRec: 2}
	// Table 5 T10I4D100K cell: per=720, minPS=1.0%, minRec=1.
	t10T5 = cell{DS: "t10i4d100k", Per: 720, MinPS: 200, MinRec: 1}
	// Table 7 Twitter cell: per=720, minPS=10%, minRec=2.
	twT7 = cell{DS: "twitter", Per: 720, MinPS: 864, MinRec: 2}
)

// coldSweeps are cold-sweep's cells. Steps leave several times the keys a
// run of the parent commit uses, so a faster program does not run out.
var coldSweeps = []sweep{
	{Base: shopT7, Offsets: 8, Steps: 120, PerRound: 2},
	{Base: t10T7, Offsets: 8, Steps: 64, PerRound: 2},
	{Base: t10T5, Offsets: 8, Steps: 64, PerRound: 2},
	{Base: twT7, Offsets: 8, Steps: 64, PerRound: 2},
}

// shardSweeps are shard-scatter's cells, on Shop-14 only: the Table 7
// cell, over cold-sweep's universe so one pin covers both, and a quarter
// of the mines from the same per=1440, minRec=2 series at minPS 1.3% of
// |TDB| (~1.2k patterns), where a sharded mine takes about twice as long.
// The slow quarter is what the tail measures. With one cell only, every
// mine cost the same and the 11th-slowest was whichever mines a host
// stall hit; its spread over ten seeds reached 0.32 in a noisy stretch.
var shardSweeps = []sweep{
	{Base: shopT7, Offsets: 8, Steps: 120, PerRound: 6},
	{Base: cell{DS: "shop14", Per: 1440, MinPS: 180, MinRec: 2}, Offsets: 8, Steps: 48, PerRound: 2},
}

// hotKeys are hot-repeat's keys in Zipf rank order (rank 1 is drawn most
// often). Their responses run from an empty pattern set (~100 B) to the
// 10.6k-pattern Shop-14 cell (~3 MB); there are fewer of them than the
// server's 64 result-cache entries, and set-up warms every one.
var hotKeys = []cell{
	t10T5,
	shopT7,
	{DS: "t10i4d100k", Per: 720, MinPS: 400, MinRec: 1},
	twT7,
	{DS: "shop14", Per: 720, MinPS: 276, MinRec: 1}, // Table 5 cell, 10.6k patterns
	t10T7,
	{DS: "shop14", Per: 1440, MinPS: 345, MinRec: 3},
	{DS: "t10i4d100k", Per: 360, MinPS: 200, MinRec: 1},
	{DS: "shop14", Per: 720, MinPS: 345, MinRec: 2},
	{DS: "t10i4d100k", Per: 1440, MinPS: 300, MinRec: 1},
	{DS: "twitter", Per: 360, MinPS: 1300, MinRec: 1},
	{DS: "shop14", Per: 360, MinPS: 414, MinRec: 1},
	{DS: "t10i4d100k", Per: 720, MinPS: 100, MinRec: 3},
	{DS: "shop14", Per: 1440, MinPS: 691, MinRec: 1},
	{DS: "t10i4d100k", Per: 1440, MinPS: 600, MinRec: 1},
	{DS: "shop14", Per: 720, MinPS: 1382, MinRec: 1},
	{DS: "t10i4d100k", Per: 360, MinPS: 2000, MinRec: 1},
	{DS: "shop14", Per: 1440, MinPS: 500, MinRec: 2},
	{DS: "t10i4d100k", Per: 720, MinPS: 150, MinRec: 2},
	{DS: "shop14", Per: 360, MinPS: 276, MinRec: 3},
	{DS: "t10i4d100k", Per: 1440, MinPS: 1000, MinRec: 1},
	{DS: "shop14", Per: 720, MinPS: 3000, MinRec: 1},
	{DS: "t10i4d100k", Per: 720, MinPS: 5000, MinRec: 1},
	{DS: "shop14", Per: 1440, MinPS: 2000, MinRec: 1},
}

// poolDataset is one upload-session dataset: generated by gen at a small
// scale with its own generator seed, and uploaded as text or as the v2
// mapped format.
type poolDataset struct {
	ID     string // the pin and report name
	Kind   string // quest, shop or twitter
	Scale  float64
	Seed   uint64
	Mapped bool
	// Sweep is the session's cheap mine: three fresh keys per session.
	Sweep sweep
}

// pool's sweeps start where one mine takes 50–70 ms on the parent commit,
// so the session's fresh mines form one class rather than several whose
// boundaries the median and tail could straddle, and a host stall of a few
// tens of milliseconds does not decide the tail.
var pool = []poolDataset{
	{ID: "pool-quest-a", Kind: "quest", Scale: 0.05, Seed: 11, Sweep: poolSweep("pool-quest-a", 720, 30, 1)},
	{ID: "pool-shop-a", Kind: "shop", Scale: 0.1, Seed: 12, Mapped: true, Sweep: poolSweep("pool-shop-a", 720, 700, 1)},
	{ID: "pool-twitter-a", Kind: "twitter", Scale: 0.02, Seed: 13, Sweep: poolSweep("pool-twitter-a", 360, 700, 1)},
	{ID: "pool-quest-b", Kind: "quest", Scale: 0.1, Seed: 14, Mapped: true, Sweep: poolSweep("pool-quest-b", 720, 175, 1)},
	{ID: "pool-shop-b", Kind: "shop", Scale: 0.25, Seed: 15, Sweep: poolSweep("pool-shop-b", 720, 2100, 1)},
	{ID: "pool-twitter-b", Kind: "twitter", Scale: 0.03, Seed: 16, Mapped: true, Sweep: poolSweep("pool-twitter-b", 360, 1200, 1)},
	{ID: "pool-quest-c", Kind: "quest", Scale: 0.15, Seed: 17, Sweep: poolSweep("pool-quest-c", 720, 280, 1)},
	{ID: "pool-shop-c", Kind: "shop", Scale: 0.2, Seed: 18, Mapped: true, Sweep: poolSweep("pool-shop-c", 720, 1700, 1)},
}

func poolSweep(id string, per int64, minPS, minRec int) sweep {
	return sweep{Base: cell{DS: id, Per: per, MinPS: minPS, MinRec: minRec}, Offsets: 8, Steps: 96}
}

// generate builds the dataset's upload body and the database a server
// parses from it.
func (p poolDataset) generate() (*tsdb.DB, []byte, error) {
	var db *tsdb.DB
	switch p.Kind {
	case "quest":
		db = gen.Quest(gen.DefaultQuest(p.Seed).Scale(p.Scale))
	case "shop":
		db = gen.Shop(gen.DefaultShop(p.Seed).Scale(p.Scale))
	case "twitter":
		db = gen.Twitter(gen.DefaultTwitter(p.Seed).Scale(p.Scale))
	default:
		return nil, nil, fmt.Errorf("pool dataset %s: unknown generator %q", p.ID, p.Kind)
	}
	var buf bytes.Buffer
	write := tsdb.Write
	if p.Mapped {
		write = tsdb.WriteMapped
	}
	if err := write(&buf, db); err != nil {
		return nil, nil, fmt.Errorf("pool dataset %s: %w", p.ID, err)
	}
	// The server's view is the parsed body: a text round trip renumbers the
	// item dictionary, which changes the fingerprint and the canonical
	// pattern order.
	parsed, err := tsdb.ReadAnyBytes(buf.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("pool dataset %s: %w", p.ID, err)
	}
	return parsed, buf.Bytes(), nil
}

package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

// histBounds are the upper bounds of the time histograms' buckets, in
// nanoseconds (1ms to 10s); an implicit final bucket catches everything
// slower. The spacing is decade-wise because mining time spans from
// sub-millisecond toy requests to multi-second full-scale runs. The same
// bounds serve the per-phase and CPU-time histograms: phases are fractions
// of mining time, so they need the same dynamic range one decade down,
// which the sub-millisecond buckets cover.
var histBounds = [...]int64{1e6, 1e7, 1e8, 1e9, 1e10}

// byteBounds are the upper bounds of the per-request allocation histogram,
// spaced in decades-of-16 because request alloc cost spans from a cached
// toy mine's bookkeeping to a full-scale run's working set.
var byteBounds = [len(histBounds)]int64{
	64 << 10,  // 64 KiB
	1 << 20,   // 1 MiB
	16 << 20,  // 16 MiB
	256 << 20, // 256 MiB
	4 << 30,   // 4 GiB
}

// histUnit fixes what a hist measures: its buckets' inclusive upper
// bounds, how a bound reads in the /v1/stats JSON, and how many observed
// units make one Prometheus base unit.
type histUnit interface {
	bounds() []int64
	label(bound int64) string
	perBase() float64
}

// nanos is the unit of the wall- and CPU-time histograms, exposed to
// Prometheus in seconds.
type nanos struct{}

func (nanos) bounds() []int64      { return histBounds[:] }
func (nanos) label(b int64) string { return time.Duration(b).String() }
func (nanos) perBase() float64     { return 1e9 }

// byteSize is the unit of the allocation histogram.
type byteSize struct{}

func (byteSize) bounds() []int64      { return byteBounds[:] }
func (byteSize) label(b int64) string { return formatBytes(b) }
func (byteSize) perBase() float64     { return 1 }

// hist is a bucketed histogram: per-bucket (non-cumulative) counts plus
// the observed total, all updated atomically. The zero value is empty and
// ready to use; U fixes the bucket layout.
type hist[U histUnit] struct {
	counts [len(histBounds) + 1]atomic.Int64
	total  atomic.Int64
}

func (h *hist[U]) observe(v int64) {
	h.total.Add(v)
	var u U
	bounds := u.bounds()
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// snapshot copies the bucket counts and the total.
func (h *hist[U]) snapshot() (counts [len(histBounds) + 1]int64, total int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.total.Load()
}

// buckets renders the bucket counts in one of the /v1/stats JSON shapes,
// built by mk from each bucket's label, raw bound (-1 for +Inf) and count.
func buckets[B any, U histUnit](h *hist[U], mk func(le string, bound, count int64) B) []B {
	var u U
	counts, _ := h.snapshot()
	out := make([]B, 0, len(counts))
	for i, b := range u.bounds() {
		out = append(out, mk(u.label(b), b, counts[i]))
	}
	return append(out, mk("+Inf", -1, counts[len(counts)-1]))
}

// writeProm renders the histogram as one Prometheus series, bounds and
// total converted to the unit's base unit.
func (h *hist[U]) writeProm(p *obs.PromWriter, name, help string, labels map[string]string) {
	var u U
	counts, total := h.snapshot()
	les := make([]float64, len(u.bounds()))
	for i, b := range u.bounds() {
		les[i] = float64(b) / u.perBase()
	}
	p.Histogram(name, help, labels, les, counts[:], float64(total)/u.perBase())
}

// metrics aggregates the serving counters reported by /v1/stats and
// rendered as Prometheus text by /metrics. Every
// field is updated atomically; one value is shared by all handler
// goroutines.
type metrics struct {
	requests    atomic.Int64 // POST /v1/mine requests received
	cacheHits   atomic.Int64 // served straight from the result cache
	cacheMisses atomic.Int64 // had to consult the single-flight group
	shed        atomic.Int64 // 429s: admission queue full or wait timed out
	cancelled   atomic.Int64 // client went away mid-queue or mid-mine
	timeouts    atomic.Int64 // mines stopped by the server-side deadline
	errors      atomic.Int64 // other failed requests (bad input, unknown db, oversized body)
	mined       atomic.Int64 // mining runs actually executed
	mining      hist[nanos]  // wall time per executed mining run

	uploads          atomic.Int64 // POST /v1/datasets requests received
	datasetEvictions atomic.Int64 // datasets displaced by the registry's LRU bounds

	shardRequests atomic.Int64 // POST /v1/shard/mine requests received
	shardMined    atomic.Int64 // shard tasks executed to completion

	// requestAlloc and requestCPU histogram the per-request resource cost
	// measured around the executed mining section (leaders and shard tasks;
	// cache hits re-serve the producing run's cost and are not re-counted).
	requestAlloc hist[byteSize]
	requestCPU   hist[nanos]

	// phases histograms the per-phase wall time of every executed mine,
	// one histogram per algorithm phase of the tracer's taxonomy. Nested
	// phases (ts-merge) record their aggregate time per run like the
	// others; count-only phases (erec-prune) stay at zero and are elided
	// from the exposition.
	phases [obs.NumPhases]hist[nanos]
}

// observeMineTime records one completed mining run in the histogram.
func (m *metrics) observeMineTime(d time.Duration) {
	m.mined.Add(1)
	m.mining.observe(int64(d))
}

// observeCost records one executed mine's resource cost.
func (m *metrics) observeCost(allocBytes uint64, cpu time.Duration) {
	m.requestAlloc.observe(int64(allocBytes))
	m.requestCPU.observe(int64(cpu))
}

// observeTrace folds one run's phase report into the per-phase histograms.
func (m *metrics) observeTrace(r obs.PhaseReport) {
	for i, s := range r.Phases {
		if i >= len(m.phases) {
			break
		}
		if s.Nanos > 0 {
			m.phases[i].observe(s.Nanos)
		}
	}
}

// HistBucket is one mining-time histogram bucket in a stats snapshot.
type HistBucket struct {
	// LE is the bucket's inclusive upper bound rendered as a duration
	// ("1ms", ..., "+Inf").
	LE string `json:"le"`
	// LENanos is the same bound in nanoseconds, so the JSON is
	// interpretable without parsing duration strings; -1 marks the
	// catch-all +Inf bucket.
	LENanos int64 `json:"leNanos"`
	// Count is the number of mines that completed within the bound
	// (non-cumulative: each mine lands in exactly one bucket).
	Count int64 `json:"count"`
}

// ByteBucket is one byte-size histogram bucket in a stats snapshot, the
// bytes analogue of HistBucket.
type ByteBucket struct {
	// LE is the bucket's inclusive upper bound, human-formatted
	// ("64KiB", ..., "+Inf"); LEBytes the same bound in bytes (-1 = +Inf).
	LE      string `json:"le"`
	LEBytes int64  `json:"leBytes"`
	// Count is the number of requests whose alloc cost fell in this bucket
	// (non-cumulative).
	Count int64 `json:"count"`
}

// formatBytes renders a byte bound the way the bounds were chosen: as a
// power-of-two multiple of KiB/MiB/GiB.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// histBucket and byteBucket build the two JSON bucket shapes.
func histBucket(le string, bound, count int64) HistBucket { return HistBucket{le, bound, count} }
func byteBucket(le string, bound, count int64) ByteBucket { return ByteBucket{le, bound, count} }

// MetricsSnapshot is a point-in-time copy of the serving counters.
type MetricsSnapshot struct {
	Requests      int64        `json:"requests"`
	CacheHits     int64        `json:"cacheHits"`
	CacheMisses   int64        `json:"cacheMisses"`
	Shed          int64        `json:"shed"`
	Cancelled     int64        `json:"cancelled"`
	Timeouts      int64        `json:"timeouts"`
	Errors        int64        `json:"errors"`
	Mined         int64        `json:"mined"`
	MiningMSTotal float64      `json:"miningMSTotal"`
	MiningTime    []HistBucket `json:"miningTime"`

	Uploads          int64 `json:"uploads"`
	DatasetEvictions int64 `json:"datasetEvictions"`

	ShardRequests int64 `json:"shardRequests"`
	ShardMined    int64 `json:"shardMined"`

	// Per-request cost: heap allocation and CPU time of executed mining
	// sections (totals plus their histograms).
	RequestAllocBytesTotal int64        `json:"requestAllocBytesTotal"`
	RequestAllocBytes      []ByteBucket `json:"requestAllocBytes"`
	RequestCPUMSTotal      float64      `json:"requestCPUMSTotal"`
	RequestCPUTime         []HistBucket `json:"requestCPUTime"`
}

// snapshot copies the counters. Individual loads are atomic but the
// snapshot as a whole is not; for operational metrics that is fine.
func (m *metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:      m.requests.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		Shed:          m.shed.Load(),
		Cancelled:     m.cancelled.Load(),
		Timeouts:      m.timeouts.Load(),
		Errors:        m.errors.Load(),
		Mined:         m.mined.Load(),
		MiningMSTotal: float64(m.mining.total.Load()) / 1e6,
		MiningTime:    buckets(&m.mining, histBucket),

		Uploads:          m.uploads.Load(),
		DatasetEvictions: m.datasetEvictions.Load(),

		ShardRequests: m.shardRequests.Load(),
		ShardMined:    m.shardMined.Load(),

		RequestAllocBytesTotal: m.requestAlloc.total.Load(),
		RequestAllocBytes:      buckets(&m.requestAlloc, byteBucket),
		RequestCPUMSTotal:      float64(m.requestCPU.total.Load()) / 1e6,
		RequestCPUTime:         buckets(&m.requestCPU, histBucket),
	}
}

// writeProm renders the counters and histograms in Prometheus text
// exposition format. Gauges that live on the Server (in-flight, queue
// depth, cache size, drain state) are appended by the /metrics handler.
func (m *metrics) writeProm(p *obs.PromWriter) {
	p.Counter("rpserved_requests_total", "Mining requests received.", float64(m.requests.Load()))
	p.Counter("rpserved_cache_hits_total", "Requests served from the result cache.", float64(m.cacheHits.Load()))
	p.Counter("rpserved_cache_misses_total", "Requests that consulted the single-flight group.", float64(m.cacheMisses.Load()))
	p.Counter("rpserved_shed_total", "Requests shed by admission control (429).", float64(m.shed.Load()))
	p.Counter("rpserved_cancelled_total", "Requests whose client went away mid-queue or mid-mine.", float64(m.cancelled.Load()))
	p.Counter("rpserved_timeouts_total", "Mines stopped by the server-side deadline.", float64(m.timeouts.Load()))
	p.Counter("rpserved_errors_total", "Other failed requests (bad input, unknown database, oversized body).", float64(m.errors.Load()))
	p.Counter("rpserved_mined_total", "Mining runs actually executed.", float64(m.mined.Load()))
	p.Counter("rpserved_uploads_total", "Dataset uploads received.", float64(m.uploads.Load()))
	p.Counter("rpserved_dataset_evictions_total", "Datasets displaced by the registry's LRU bounds.", float64(m.datasetEvictions.Load()))
	p.Counter("rpserved_shard_requests_total", "Shard mine requests received.", float64(m.shardRequests.Load()))
	p.Counter("rpserved_shard_mined_total", "Shard tasks executed to completion.", float64(m.shardMined.Load()))

	m.mining.writeProm(p, "rpserved_mining_seconds", "Wall time per executed mining run.", nil)
	m.requestAlloc.writeProm(p, "rpserved_request_alloc_bytes", "Heap bytes allocated per executed mining section.", nil)
	m.requestCPU.writeProm(p, "rpserved_request_cpu_seconds", "Process CPU time consumed per executed mining section.", nil)
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		if counts, _ := m.phases[ph].snapshot(); counts == ([len(counts)]int64{}) {
			continue // count-only phases (erec-prune) have no time series
		}
		m.phases[ph].writeProm(p, "rpserved_phase_seconds", "Wall time per mining run attributed to one algorithm phase.",
			map[string]string{"phase": ph.String()})
	}
}

// Command rpperf is the repository's end-to-end benchmark. One seeded load
// generator drives real rpserved processes, built from the checked-out
// commit and configured only through their flags, over loopback on four
// workloads (cold-sweep, hot-repeat, upload-session, shard-scatter). It
// checks every answer against digests pinned from an independent miner,
// checks each workload's invariant, and prints every metric by name with
// its unit; the last line of its output is one JSON object.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash cmd/rpperf/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
//	bash cmd/rpperf/run.sh --workload shard-scatter --seed 1 --seconds 10 --trace 1
//	rpperf -pin cmd/rpperf/pins.json     # recompute the pinned answers
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the window
// untraced and half traced, and reports the per-layer metrics with a per-op
// breakdown whose layer rows plus serve.residual sum to each op's wall time.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/tsdb"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	bin       string // rpserved binary
	work      string // scratch directory inside the checkout
	setupReps int    // minimum set-ups per run
	nproc     int
	pool      [][]byte // upload-session's upload bodies
}

// A run sets up at least minSetupReps times, and more while set-up has
// taken under setupBudget seconds in all (at most maxSetupReps times), so
// that a set-up of a few milliseconds still gets a steady median. setup_s
// is their median; the last fleet is the one measured.
const (
	minSetupReps = 3
	setupBudget  = 1.0
	maxSetupReps = 15
)

// calibBound is the share by which the start and end calibrations may
// differ before the run is reported as noisy: the bound in BENCHMARK.json
// of every end-to-end metric that a slower host moves (all but ok_frac and
// peak_rss_mb). A test keeps the two equal.
const calibBound = 0.25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdoutDst, stderrDst io.Writer) int {
	stdout, stderr := cliio.NewWriter(stdoutDst), cliio.NewWriter(stderrDst)
	fs := flag.NewFlagSet("rpperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold-sweep, hot-repeat, upload-session or shard-scatter")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every key, arrival and sample draw")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measuring window")
	traceN := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&cfg.bin, "rpserved", "", "rpserved binary built from the commit under test")
	fs.StringVar(&cfg.work, "work", ".bench_build/rpperf", "scratch directory for logs, spill files and traces")
	pin := fs.String("pin", "", "recompute the pinned answers into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin != "" {
		if err := writePins(*pin, stderr); err != nil {
			fmt.Fprintln(stderr, "rpperf:", err)
			return 1
		}
		return 0
	}
	// The generator shares the host with the servers it measures: collect
	// its garbage less often.
	debug.SetGCPercent(400)
	cfg.trace = *traceN == 1
	cfg.setupReps = minSetupReps
	cfg.nproc = runtime.NumCPU()
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "rpperf:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rpperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if err := stdout.Err(); err != nil {
		fmt.Fprintln(stderr, "rpperf: writing the result:", err)
		return 1
	}
	return 0
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(cfg config, out *cliio.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if cfg.bin == "" {
		return nil, errors.New("-rpserved is required (run.sh builds it)")
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := hostRecord(cfg)
	fmt.Fprintf(out, "rpperf %s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host: %s\n", host)
	calib0 := calibrate()

	if w.name == "upload-session" {
		if cfg.pool, err = poolBodies(); err != nil {
			return nil, err
		}
	}
	var dbs map[string]*tsdb.DB
	if cfg.trace {
		// Replica databases for the traced phase; input building, outside
		// set-up. Pool replicas come from parsing each upload body.
		dbs = map[string]*tsdb.DB{}
		for _, d := range served {
			if dbs[d.Name], err = d.load(); err != nil {
				return nil, err
			}
		}
	}

	r := newRunner(cfg, p)
	var setups []float64
	var f *fleet
	for total := 0.0; ; {
		start := now()
		f, err = w.start(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
		if len(setups) >= cfg.setupReps && (total >= setupBudget || len(setups) >= maxSetupReps) {
			break
		}
		f.stop()
	}
	defer f.stop()

	d := time.Duration(cfg.seconds * float64(time.Second))
	measure := func(d time.Duration) phase {
		ph := w.measure(ctx, r, d)
		ph.mine, ph.upload = r.takePhase()
		return ph
	}
	metrics := map[string]metric{}
	if !cfg.trace {
		u0, err := f.usage()
		if err != nil {
			return nil, err
		}
		ph := measure(d)
		u1, err := f.usage()
		if err != nil {
			return nil, err
		}
		endToEnd(metrics, ph, setups, u0, u1, r)
		printPhase(out, w.name, ph)
		for _, s := range f.all {
			if u, err := s.usage(); err == nil {
				fmt.Fprintf(out, "server %s: peak RSS %.1f MB, CPU %.2f s\n", s.url, float64(u.PeakRSS)/1e6, u.CPU.Seconds())
			}
		}
	} else {
		half := d / 2
		base := measure(half)
		r.tr = newTracer(dbs, cfg.nproc)
		pre := r.tr.scrape(r)
		st0, _ := r.stats(f.front)
		traced := measure(half)
		post := r.tr.scrape(r)
		st1, _ := r.stats(f.front)
		perLayer(metrics, r, base, traced, pre, post, st0, st1)
		for _, e := range r.tr.check() {
			r.broke("traced run: %s", e)
		}
		r.tr.report(out)
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans and op tables written to %s\n", path)
	}
	calib1 := calibrate()
	if cfg.trace {
		metrics["load.calib_ms"] = metric{calib0, "ms"}
		metrics["load.check_ms"] = metric{ms(r.checkTime), "ms"}
	}
	drift := math.Abs(calib1-calib0) / calib0
	fmt.Fprintf(out, "calibration: %.3f ms at start, %.3f ms at end (drift %.1f%%)\n", calib0, calib1, 100*drift)
	if drift > calibBound {
		fmt.Fprintf(out, "NOISY: calibration drifted %.1f%% > %.0f%%; do not compare this run\n", 100*drift, 100*calibBound)
	}

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	res.Correct = r.failed == 0 && len(r.broken) == 0 && r.attempted > 0
	for _, e := range r.errs {
		fmt.Fprintln(out, "FAILED:", e)
	}
	for _, b := range r.broken {
		fmt.Fprintln(out, "INVARIANT:", b)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Fprintf(out, "%-28s %14.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	return res, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(m map[string]metric, ph phase, setups []float64, u0, u1 procUsage, r *runner) {
	m["setup_s"] = metric{median(setups), "s"}
	m["mine_p50_ms"] = metric{median(ph.mine), "ms"}
	tv, _ := tail(ph.mine)
	m["mine_tail_ms"] = metric{tv, "ms"}
	ops := ph.opsPerS
	if ops == 0 {
		ops = float64(ph.ops) / ph.elapsed.Seconds()
	}
	m["ops_per_s"] = metric{ops, "ops/s"}
	m["ok_frac"] = metric{1 - float64(r.failed)/float64(max(r.attempted, 1)), "ratio"}
	m["cpu_ms_per_op"] = metric{ms(u1.CPU-u0.CPU) / float64(max(ph.ops, 1)), "ms"}
	m["peak_rss_mb"] = metric{float64(u1.PeakRSS) / 1e6, "MB"}
}

// printPhase reports the latency distributions with their sample counts.
func printPhase(out *cliio.Writer, name string, ph phase) {
	for _, s := range []struct {
		what string
		xs   []float64
	}{{"mine", ph.mine}, {"upload", ph.upload}} {
		if len(s.xs) == 0 {
			continue
		}
		tv, pct := tail(s.xs)
		fmt.Fprintf(out, "%s %s latency: p50 %.3f ms, p%.1f %.3f ms (n=%d, %d beyond)\n",
			name, s.what, median(s.xs), pct, tv, len(s.xs), min(tailBeyond, len(s.xs)-1))
	}
	if len(ph.late) > 0 {
		tv, pct := tail(ph.late)
		fmt.Fprintf(out, "open-loop lateness: p50 %.3f ms, p%.1f %.3f ms (n=%d)\n", median(ph.late), pct, tv, len(ph.late))
	}
	fmt.Fprintf(out, "%d ops in %.2f s\n", ph.ops, ph.elapsed.Seconds())
}

// perLayer fills the traced run's metrics. Layers a workload does not
// exercise report 0.
func perLayer(m map[string]metric, r *runner, base, traced phase, pre, post serverView, st0, st1 serverStats) {
	t := r.tr
	units := map[string]string{}
	for _, pl := range perLayerMetrics {
		units[pl.name] = pl.unit
		m[pl.name] = metric{median(t.samples[pl.name]), pl.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }
	hits := st1.Metrics.CacheHits - st0.Metrics.CacheHits
	misses := st1.Metrics.CacheMisses - st0.Metrics.CacheMisses
	set("serve.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	set("serve.shed", delta(pre, post, "rpserved_shed_total"))
	set("serve.timeouts", delta(pre, post, "rpserved_timeouts_total"))
	set("serve.registry_evictions", delta(pre, post, "rpserved_dataset_evictions_total"))
	coalesced := 0
	if j, err := r.journal(r.fleet.front); err == nil {
		for _, e := range j {
			if e.Outcome == "coalesced" {
				coalesced++
			}
		}
		if len(t.samples["serve.queue_wait_ms"]) == 0 {
			var q []float64
			for _, e := range j {
				q = append(q, e.QueueMS)
			}
			set("serve.queue_wait_ms", median(q))
		}
	}
	set("serve.coalesced", float64(coalesced))
	if len(post) > 0 {
		if len(t.samples["serve.heap_inuse_mb"]) == 0 {
			set("serve.heap_inuse_mb", post[0]["go_heap_inuse_bytes"]/1e6)
		}
		for _, p := range []struct{ metric, counter string }{
			{"shard.retries", "rpserved_shard_peer_retries_total"},
			{"shard.hedges", "rpserved_shard_peer_hedges_total"},
			{"shard.peer_failures", "rpserved_shard_peer_failure_total"},
		} {
			sum := 0.0
			for _, k := range sortedKeys(post[0]) {
				if strings.HasPrefix(k, p.counter+"{") {
					sum += post[0][k] - pre[0][k]
				}
			}
			set(p.metric, sum)
		}
	}
	if sb := median(t.samples["shard.single_box_ms"]); sb > 0 {
		set("shard.overhead_frac", median(t.samples["shard.wall_ms"])/sb-1)
	}
	if u := median(base.mine); u > 0 {
		set("obs.trace_overhead_frac", median(traced.mine)/u-1)
	}
	if len(base.upload) > 0 {
		set("upload_p50_ms", median(base.upload))
		tv, _ := tail(base.upload)
		set("upload_tail_ms", tv)
	}
}

// perLayerMetrics lists every metric of the traced run with its unit, in
// BENCHMARK.json's order.
var perLayerMetrics = []struct{ name, unit string }{
	{"tsdb.parse_ms", "ms"}, {"tsdb.parse_mb_s", "MB/s"}, {"tsdb.fingerprint_ms", "ms"}, {"tsdb.server_ingest_ms", "ms"},
	{"core.scan_ms", "ms"}, {"core.tree_build_ms", "ms"}, {"core.cond_mine_ms", "ms"}, {"core.ts_merge_ms", "ms"},
	{"core.finalize_ms", "ms"}, {"core.ts_merge_count", "count"}, {"core.erec_prune_count", "count"},
	{"core.candidate_items", "count"}, {"core.patterns_examined", "count"}, {"core.patterns_pruned", "count"}, {"core.tree_nodes", "count"},
	{"core.useful_ratio", "ratio"}, {"core.alloc_mb_per_mine", "MB"}, {"core.server_mine_ms", "ms"}, {"core.replica_ms", "ms"},
	{"api.decode_us", "us"}, {"api.encode_ms", "ms"}, {"api.response_kb", "KB"}, {"api.from_core_ms", "ms"}, {"api.shard_decode_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced", "count"}, {"serve.shed", "count"}, {"serve.timeouts", "count"},
	{"serve.queue_wait_ms", "ms"}, {"serve.residual_ms", "ms"}, {"serve.registry_evictions", "count"}, {"serve.registry_mb", "MB"},
	{"serve.heap_inuse_mb", "MB"},
	{"shard.scatter_ms", "ms"}, {"shard.mine_ms", "ms"}, {"shard.task_ms", "ms"}, {"shard.task_skew", "ratio"}, {"shard.reduce_ms", "ms"},
	{"shard.wire_kb", "KB"}, {"shard.retries", "count"}, {"shard.hedges", "count"}, {"shard.peer_failures", "count"},
	{"shard.overhead_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
	{"upload_p50_ms", "ms"}, {"upload_tail_ms", "ms"},
	{"load.calib_ms", "ms"}, {"load.check_ms", "ms"},
}

// hostRecord describes the machine and build a run measured.
func hostRecord(cfg config) string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", model, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

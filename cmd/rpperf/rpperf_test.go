package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/gen"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 37, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("short sample: tail %v at p%v, want the maximum at p100", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A stalled request must delay the clocks of the requests due behind it:
// open-loop latency runs from the due time, not from when a sender got to
// the request, and the generator itself never falls behind.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 200 * time.Millisecond}
	const stall = 80 * time.Millisecond
	lat, late, sent := openLoop(context.Background(), time.Now(), dues, 1, func(i int) time.Time {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now()
	})
	for i := range dues {
		if !sent[i] {
			t.Fatalf("request %d not sent", i)
		}
		if late[i] > 20*time.Millisecond {
			t.Errorf("request %d dispatched %v late; the generator must not wait for senders", i, late[i])
		}
	}
	for i := 1; i <= 3; i++ {
		// Due at i*10ms, served only after the stall ends at 80ms.
		if want := stall - dues[i]; lat[i] < want {
			t.Errorf("request %d: latency %v, want at least %v (its wait behind the stall)", i, lat[i], want)
		}
	}
	if lat[4] > 50*time.Millisecond {
		t.Errorf("request 4, due after the stall: latency %v, want no wait", lat[4])
	}
}

func TestOpenLoopStopsDispatchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, sent := openLoop(ctx, time.Now(), []time.Duration{time.Hour}, 1, func(int) time.Time { return time.Now() })
	if sent[0] {
		t.Fatal("a request due in an hour was sent after cancellation")
	}
}

// testAnswer mines a small database and returns the key, pins holding the
// vertical miner's answer for it, and rpserved's response body.
func testAnswer(t *testing.T) (cell, *pins, []byte) {
	t.Helper()
	db := gen.Shop(gen.DefaultShop(3).Scale(0.05))
	c := cell{DS: "test", Per: 360, MinPS: 150, MinRec: 1}
	want, err := verticalDigest(db, c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Mine(db, core.Options{Per: c.Per, MinPS: c.MinPS, MinRec: c.MinRec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) < 3 {
		t.Fatalf("test cell yields %d patterns; need a few to mutate", len(res.Patterns))
	}
	pats := api.PatternsFromCore(db, res.Patterns)
	body, err := encodeResponse(&api.MineResponse{V: api.Version, DB: "test", Count: len(pats), Patterns: pats})
	if err != nil {
		t.Fatal(err)
	}
	return c, &pins{Answers: map[string]string{c.String(): want}}, body
}

func TestCheckerAcceptsTheAnswer(t *testing.T) {
	c, p, body := testAnswer(t)
	if _, err := p.checkCount(c, body); err != nil {
		t.Fatal(err)
	}
	if err := p.checkFull(c, body); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsMutatedResponse(t *testing.T) {
	c, p, body := testAnswer(t)
	mutations := map[string]func(*api.MineResponse){
		"support":  func(r *api.MineResponse) { r.Patterns[0].Support++ },
		"interval": func(r *api.MineResponse) { r.Patterns[1].Intervals[0].PS-- },
		"item":     func(r *api.MineResponse) { r.Patterns[2].Items[0] += "x" },
		"order":    func(r *api.MineResponse) { r.Patterns[0], r.Patterns[1] = r.Patterns[1], r.Patterns[0] },
		"dropped":  func(r *api.MineResponse) { r.Patterns = r.Patterns[1:]; r.Count-- },
		"count":    func(r *api.MineResponse) { r.Count++ },
		"partial":  func(r *api.MineResponse) { r.Partial = true },
	}
	for name, mutate := range mutations {
		var resp api.MineResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		mutate(&resp)
		b, err := encodeResponse(&resp)
		if err != nil {
			t.Fatal(err)
		}
		_, cerr := p.checkCount(c, b)
		ferr := p.checkFull(c, b)
		if cerr == nil && ferr == nil {
			t.Errorf("%s: mutated response passed both checks", name)
		}
	}
}

func TestSeededDrawsReproduce(t *testing.T) {
	keys := func(seed uint64) []string {
		var out []string
		st := newColdState(seed, coldSweeps)
		for round := 0; round < 3; round++ {
			for _, i := range st.order.Perm(len(st.pos)) {
				k, _ := st.pos[i].key()
				out = append(out, k.String())
			}
		}
		us := newUploadState(seed)
		for i := 0; i < 8; i++ {
			k, _ := us.pos[(us.next+i)%len(pool)].key()
			out = append(out, k.String(), strings.Repeat("x", us.rng.IntN(3)))
		}
		for _, k := range zipfDeck(len(hotKeys), hotZipfS, hotDeckSize, newRNG(seed, streamKeys))[:50] {
			out = append(out, hotKeys[k].String())
		}
		for _, d := range poissonDues(newRNG(seed, streamArrivals), hotRate, time.Second) {
			out = append(out, d.String())
		}
		return out
	}
	a, b := keys(7), keys(7)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew different keys or arrivals")
	}
	if slices.Equal(a, keys(8)) {
		t.Fatal("different seeds drew identical keys and arrivals")
	}
	// Seeds reorder hot-repeat's deck but keep its mix.
	d7 := zipfDeck(len(hotKeys), hotZipfS, hotDeckSize, newRNG(7, streamKeys))
	d8 := zipfDeck(len(hotKeys), hotZipfS, hotDeckSize, newRNG(8, streamKeys))
	if slices.Equal(d7, d8) {
		t.Fatal("different seeds dealt the deck in the same order")
	}
	slices.Sort(d7)
	slices.Sort(d8)
	if !slices.Equal(d7, d8) {
		t.Fatal("different seeds dealt different key mixes")
	}
	if n := len(d7); n < hotDeckSize-len(hotKeys) || n > hotDeckSize+len(hotKeys) {
		t.Fatalf("deck has %d cards, want about %d", n, hotDeckSize)
	}
}

// Every key a run can draw must have a pinned answer, or the run fails.
func TestPinsCoverEveryKey(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pinnedCells() {
		if _, ok := p.Answers[c.String()]; !ok {
			t.Errorf("no pinned answer for %s; run rpperf -pin", c)
		}
	}
	for _, n := range append(servedNames(), "pool-quest-a") {
		if p.Datasets[n] == "" {
			t.Errorf("no pinned fingerprint for %s", n)
		}
	}
}

// The traced run's cross-checks must be able to fail: on ops whose rows
// exceed their wall time, on a replayed core far from the server's, and on
// a journal row that is not the op's.
func TestTraceCheckFails(t *testing.T) {
	good := func() *tracer {
		tr := newTracer(nil, 2)
		for i := 0; i < 40; i++ {
			tr.ops = append(tr.ops, opTable{ID: i, WallMS: 100, Residual: 2})
		}
		tr.coreRatio = []float64{0.9, 1.1, 1}
		return tr
	}
	if errs := good().check(); len(errs) != 0 {
		t.Fatalf("consistent trace fails: %v", errs)
	}
	tr := good()
	tr.ops[3].Residual = -20 // one stalled replay is tolerated
	if errs := tr.check(); len(errs) != 0 {
		t.Errorf("one op over wall time fails the run: %v", errs)
	}
	tr.ops[4].Residual, tr.ops[5].Residual = -20, -20
	if errs := tr.check(); len(errs) != 1 {
		t.Errorf("3 of 40 ops over wall time: %v, want one failure", errs)
	}
	tr = good()
	tr.ops[3].Residual = -5.9 // within 1 ms + 5% of 100 ms
	tr.ops[4].Residual = -5.9
	if errs := tr.check(); len(errs) != 0 {
		t.Errorf("rows within tolerance fail: %v", errs)
	}
	tr = good()
	tr.coreRatio = []float64{2.5, 2.4, 0.9}
	if errs := tr.check(); len(errs) != 1 {
		t.Errorf("replay at 2.4x the server: %v, want one failure", errs)
	}
	tr = good()
	tr.mismatched = []string{"x"}
	if errs := tr.check(); len(errs) != 1 {
		t.Errorf("journal/metrics mismatch: %v, want one failure", errs)
	}
}

// rpperf reports exactly BENCHMARK.json's metrics, per-layer ones in its
// order and with its units, and flags a run as noisy at the bound of the
// end-to-end metrics a slower host moves.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json at the repository root:", err)
	}
	var bj struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, rpperf reports %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if got := perLayerMetrics[i]; got.name != m.Name || got.unit != m.Unit {
			t.Errorf("per-layer metric %d: rpperf %s (%s), BENCHMARK.json %s (%s)", i, got.name, got.unit, m.Name, m.Unit)
		}
	}
	m := map[string]metric{}
	endToEnd(m, phase{mine: []float64{1}, ops: 1, elapsed: time.Second}, []float64{1}, procUsage{}, procUsage{}, &runner{})
	if len(m) != len(bj.EndToEnd) {
		t.Errorf("rpperf reports %d end-to-end metrics, BENCHMARK.json lists %d", len(m), len(bj.EndToEnd))
	}
	for _, e := range bj.EndToEnd {
		if _, ok := m[e.Name]; !ok {
			t.Errorf("rpperf does not report %s", e.Name)
		}
		if e.Name != "ok_frac" && e.Name != "peak_rss_mb" && e.Bound != calibBound {
			t.Errorf("%s has bound %v; calibBound is %v", e.Name, e.Bound, calibBound)
		}
	}
}

// TestSmoke runs every workload for a moment with every answer check and
// invariant on, against rpserved built from this tree. upload-session and
// shard-scatter run traced, which between them take every replay path.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts rpserved")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rpserved")
	build := exec.Command("go", "build", "-o", bin, "github.com/recurpat/rp/cmd/rpserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rpserved: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := w.name == "upload-session" || w.name == "shard-scatter"
			cfg := config{workload: w.name, seed: 3, seconds: 0.6, trace: traced, bin: bin,
				work: filepath.Join(dir, w.name), setupReps: 1, nproc: 2}
			res, err := execute(cfg, cliio.NewWriter(io.Discard))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			want := []string{"setup_s", "mine_p50_ms", "mine_tail_ms", "ops_per_s", "ok_frac", "cpu_ms_per_op", "peak_rss_mb"}
			if traced {
				want = want[:0]
				for _, m := range perLayerMetrics {
					want = append(want, m.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("run lacks %s", name)
				}
			}
		})
	}
}

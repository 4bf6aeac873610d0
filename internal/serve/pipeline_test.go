package serve

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// TestPipelinePin drives one server through every exit of both mining
// endpoints that a fixed request sequence can reach — miss, hit,
// coalesced, shed, bad-request, unknown-db, shard-ok, shard bad-spec and
// shard fingerprint-conflict — and pins what operators and cmd/rpperf read
// back: the /metrics families with their label sets and counter values,
// each journal row's outcome/status/opts, and the access-log keys of each
// endpoint. Shard tasks in particular must stay out of
// rpserved_mined_total, rpserved_mining_seconds and rpserved_phase_seconds.
func TestPipelinePin(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	fn := func(ctx context.Context, db *tsdb.DB, o core.Options) (*core.Result, error) {
		started <- struct{}{}
		<-release
		return core.MineContext(ctx, db, o)
	}
	var logs syncBuffer
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1,
		Logger: obs.NewLogger(&logs, slog.LevelInfo)}, fn)
	fp := fmt.Sprintf("%016x", testDB().Fingerprint())
	mineBody := `{"db":"shop","per":4,"minPS":3,"minRec":1}`

	// miss (the leader, held inside the miner) and coalesced (its follower).
	statuses := make(chan int, 2)
	go func() {
		status, _ := postMine(t, hs.URL, mineBody)
		statuses <- status
	}()
	<-started
	go func() {
		status, _ := postMine(t, hs.URL, mineBody)
		statuses <- status
	}()
	waitFor(t, func() bool { return s.metrics.cacheMisses.Load() == 2 })
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	// shed: a different key finds the only slot busy and no queue.
	if status, m := postMine(t, hs.URL, `{"db":"shop","per":3,"minPS":2}`); status != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d, body %v", status, m)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("leader/follower: status %d", status)
		}
	}
	// hit, bad-request, unknown-db.
	if status, m := postMine(t, hs.URL, mineBody); status != http.StatusOK || m["cached"] != true {
		t.Fatalf("hit: status %d, cached %v", status, m["cached"])
	}
	if status, _ := postMine(t, hs.URL, `{"per":4,"bogus":1}`); status != http.StatusBadRequest {
		t.Fatalf("bad-request: status %d", status)
	}
	if status, _ := postMine(t, hs.URL, `{"db":"nope","per":4,"minPS":3}`); status != http.StatusNotFound {
		t.Fatalf("unknown-db: status %d", status)
	}
	// shard-ok, shard bad-spec, shard fingerprint-conflict.
	if status, m := postShard(t, hs.URL, fmt.Sprintf(`{"fingerprint":%q,"per":4,"minPS":3,"minRec":1,"shard":0,"shards":2}`, fp)); status != http.StatusOK {
		t.Fatalf("shard-ok: status %d, body %v", status, m)
	}
	if status, _ := postShard(t, hs.URL, `{"db":"shop","per":4,"minPS":3,"shard":3,"shards":3}`); status != http.StatusBadRequest {
		t.Fatalf("shard bad-spec: status %d", status)
	}
	if status, _ := postShard(t, hs.URL, `{"db":"shop","per":4,"minPS":3,"shard":0,"shards":2,"fingerprint":"00000000000000ff"}`); status != http.StatusConflict {
		t.Fatalf("shard fingerprint-conflict: status %d", status)
	}

	// Journal rows: handlers finish in nondeterministic order, so compare
	// sorted rows.
	waitFor(t, func() bool { return strings.Count(logs.String(), "outcome=") == 9 })
	_, body := getBody(t, hs.URL+"/debug/requests?format=json")
	var jr struct {
		Recent []*RequestEntry `json:"recent"`
	}
	decodeJSON(t, body, &jr)
	var rows []string
	for _, e := range jr.Recent {
		rows = append(rows, fmt.Sprintf("%s %d %q", e.Outcome, e.Status, e.Opts))
	}
	sort.Strings(rows)
	const opts = "per=4,minPS=3,minRec=1,maxLen=0,par=0,order=support,erec=on"
	wantRows := []string{
		`bad-request 400 ""`,
		`bad-request 400 ""`,
		`cache-hit 200 "` + opts + `"`,
		`coalesced 200 "` + opts + `"`,
		`ok 200 "` + opts + `"`,
		`shard-ok 200 "` + opts + `,shard=0/2"`,
		`shed 429 "per=3,minPS=2,minRec=1,maxLen=0,par=0,order=support,erec=on"`,
		`unknown-db 404 ""`,
		`unknown-db 409 ""`,
	}
	if got, want := strings.Join(rows, "\n"), strings.Join(wantRows, "\n"); got != want {
		t.Errorf("journal rows:\n%s\nwant:\n%s", got, want)
	}

	// Access-log keys, per endpoint, in emission order.
	wantKeys := map[string]string{
		"mine":       "time level msg id db fp opts outcome status cached patterns queueMS mineMS allocBytes cpuMS elapsedMS",
		"shard-mine": "time level msg id db fp opts outcome status patterns queueMS mineMS allocBytes cpuMS elapsedMS",
	}
	lines := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var keys []string
		msg := ""
		for _, f := range strings.Fields(line) {
			k, v, _ := strings.Cut(f, "=")
			keys = append(keys, k)
			if k == "msg" {
				msg = v
			}
		}
		lines[msg]++
		if got := strings.Join(keys, " "); got != wantKeys[msg] {
			t.Errorf("%s access-log keys:\n%s\nwant:\n%s", msg, got, wantKeys[msg])
		}
	}
	if lines["mine"] != 6 || lines["shard-mine"] != 3 {
		t.Errorf("access-log lines per endpoint = %v, want 6 mine and 3 shard-mine", lines)
	}

	_, prom := getBody(t, hs.URL+"/metrics")
	if got, want := promPin(prom), strings.Join(wantProm, "\n"); got != want {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", got, want)
	}
}

// promPin reduces an exposition to what TestPipelinePin pins: every TYPE
// line, every sample's name and label set, and the value of every
// rpserved_* counter and histogram _count. A histogram's bucket bounds
// fold into its _count line. Bucket counts and sums (timing), gauges and
// the go_* runtime counters (process state) are left out.
func promPin(text string) string {
	types := map[string]string{}
	var out, les []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			out = append(out, line)
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series, value := line[:i], line[i+1:]
		name, _, _ := strings.Cut(series, "{")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			_, le, _ := strings.Cut(series, `le="`)
			les = append(les, strings.TrimSuffix(le, `"}`))
		case strings.HasSuffix(name, "_sum"):
		case strings.HasSuffix(name, "_count"):
			out = append(out, series+" "+value+" le="+strings.Join(les, ","))
			les = nil
		case strings.HasPrefix(name, "rpserved_") && types[name] == "counter":
			out = append(out, series+" "+value)
		default:
			out = append(out, series)
		}
	}
	return strings.Join(out, "\n")
}

var wantProm = []string{
	"# TYPE rpserved_requests_total counter",
	"rpserved_requests_total 6",
	"# TYPE rpserved_cache_hits_total counter",
	"rpserved_cache_hits_total 1",
	"# TYPE rpserved_cache_misses_total counter",
	"rpserved_cache_misses_total 3",
	"# TYPE rpserved_shed_total counter",
	"rpserved_shed_total 1",
	"# TYPE rpserved_cancelled_total counter",
	"rpserved_cancelled_total 0",
	"# TYPE rpserved_timeouts_total counter",
	"rpserved_timeouts_total 0",
	"# TYPE rpserved_errors_total counter",
	"rpserved_errors_total 4",
	"# TYPE rpserved_mined_total counter",
	"rpserved_mined_total 1",
	"# TYPE rpserved_uploads_total counter",
	"rpserved_uploads_total 0",
	"# TYPE rpserved_dataset_evictions_total counter",
	"rpserved_dataset_evictions_total 0",
	"# TYPE rpserved_shard_requests_total counter",
	"rpserved_shard_requests_total 3",
	"# TYPE rpserved_shard_mined_total counter",
	"rpserved_shard_mined_total 1",
	"# TYPE rpserved_mining_seconds histogram",
	"rpserved_mining_seconds_count 1 le=0.001,0.01,0.1,1,10,+Inf",
	"# TYPE rpserved_request_alloc_bytes histogram",
	"rpserved_request_alloc_bytes_count 2 le=65536,1048576,16777216,268435456,4294967296,+Inf",
	"# TYPE rpserved_request_cpu_seconds histogram",
	"rpserved_request_cpu_seconds_count 2 le=0.001,0.01,0.1,1,10,+Inf",
	"# TYPE rpserved_phase_seconds histogram",
	`rpserved_phase_seconds_count{phase="scan"} 1 le=0.001,0.01,0.1,1,10,+Inf`,
	"# TYPE rpserved_phase_seconds histogram",
	`rpserved_phase_seconds_count{phase="tree-build"} 1 le=0.001,0.01,0.1,1,10,+Inf`,
	"# TYPE rpserved_phase_seconds histogram",
	`rpserved_phase_seconds_count{phase="mine"} 1 le=0.001,0.01,0.1,1,10,+Inf`,
	"# TYPE rpserved_phase_seconds histogram",
	`rpserved_phase_seconds_count{phase="finalize"} 1 le=0.001,0.01,0.1,1,10,+Inf`,
	"# TYPE rpserved_phase_seconds histogram",
	`rpserved_phase_seconds_count{phase="ts-merge"} 1 le=0.001,0.01,0.1,1,10,+Inf`,
	"# TYPE rpserved_in_flight gauge",
	"rpserved_in_flight",
	"# TYPE rpserved_queue_depth gauge",
	"rpserved_queue_depth",
	"# TYPE rpserved_cache_entries gauge",
	"rpserved_cache_entries",
	"# TYPE rpserved_cache_hit_ratio gauge",
	"rpserved_cache_hit_ratio",
	"# TYPE rpserved_datasets gauge",
	"rpserved_datasets",
	"# TYPE rpserved_registry_bytes gauge",
	"rpserved_registry_bytes",
	"# TYPE rpserved_draining gauge",
	"rpserved_draining",
	"# TYPE go_goroutines gauge",
	"go_goroutines",
	"# TYPE go_heap_inuse_bytes gauge",
	"go_heap_inuse_bytes",
	"# TYPE go_heap_sys_bytes gauge",
	"go_heap_sys_bytes",
	"# TYPE go_gc_pause_seconds_total counter",
	"go_gc_pause_seconds_total",
	"# TYPE go_gc_cycles_total counter",
	"go_gc_cycles_total",
}

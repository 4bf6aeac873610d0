package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/shard"
	"github.com/recurpat/rp/internal/tsdb"
)

// tracer is the traced run's recorder. After each op it replays the op's
// work through the layers' public functions in this process — api decode
// and encode, core.MineContext with the public phase tracer attached,
// tsdb parse and fingerprint, shard reduce — and reads serve's view from
// its public endpoints. Each op gets a table of additive layer rows. A row
// takes the server's own time for the op where the server reports one
// (its journalled mine time, split over the core phases in the replay's
// shares; its ingest phase for an upload's parse), and the replay's time
// otherwise. The residual row is the op's wall time minus the rows
// (handler, cache, journal, net/http and loopback), so rows plus residual
// sum to wall time by definition; check says whether the rows can be
// believed. Spans are kept in memory and written when the run ends.
type tracer struct {
	epoch time.Time
	dbs   map[string]*tsdb.DB // replica databases by cell dataset name
	nproc int

	mu      sync.Mutex
	spans   []span
	ops     []opTable
	samples map[string][]float64 // per-layer metric → one value per op
	decoded map[string][]api.Pattern

	coreRatio  []float64 // single-box misses: replayed core time over the server's
	mismatched []string  // ops whose journal row disagrees with /metrics
}

// span is one timed call; Parent names the op span it belongs to.
type span struct {
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"startUS"`
	EndUS   float64 `json:"endUS"`
}

// row is one layer's share of an op's wall time. From says who measured
// it: "server" or "replay".
type row struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
	From string  `json:"from"`
}

// opTable is one op's breakdown: Rows plus the residual sum to WallMS.
type opTable struct {
	ID       int     `json:"id"`
	Kind     string  `json:"kind"`
	Key      string  `json:"key"`
	WallMS   float64 `json:"wallMS"`
	Rows     []row   `json:"rows"`
	Residual float64 `json:"residualMS"`
}

func newTracer(dbs map[string]*tsdb.DB, nproc int) *tracer {
	return &tracer{
		epoch:   now(),
		dbs:     dbs,
		nproc:   nproc,
		samples: map[string][]float64{},
		decoded: map[string][]api.Pattern{},
	}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch)) / 1e3 }

// timed runs fn and records it as a span of op.
func (t *tracer) timed(op int, name, parent string, fn func()) float64 {
	start := now()
	fn()
	end := now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, StartUS: t.us(start), EndUS: t.us(end)})
	t.mu.Unlock()
	return ms(end.Sub(start))
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// begin opens an op: its span and id.
func (t *tracer) begin(kind string, key string, sent time.Time, lat time.Duration) (int, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.ops)
	name := "op:" + kind
	t.ops = append(t.ops, opTable{ID: id, Kind: kind, Key: key, WallMS: ms(lat)})
	t.spans = append(t.spans, span{Op: id, Name: name, StartUS: t.us(sent), EndUS: t.us(sent.Add(lat))})
	return id, name
}

// finish closes an op's table: the residual is wall time minus the rows.
func (t *tracer) finish(id int, rows []row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := &t.ops[id]
	op.Rows = rows
	sum := 0.0
	for _, r := range rows {
		sum += r.MS
	}
	op.Residual = op.WallMS - sum
	t.samples["serve.residual_ms"] = append(t.samples["serve.residual_ms"], op.Residual)
}

// serverView is every server's /metrics around one closed-loop op.
type serverView []map[string]float64

func (t *tracer) scrape(r *runner) serverView {
	v := make(serverView, len(r.fleet.all))
	for i, s := range r.fleet.all {
		m, err := r.metrics(s)
		if err != nil {
			r.note("traced run: scraping /metrics: " + err.Error())
			m = map[string]float64{}
		}
		v[i] = m
	}
	return v
}

// delta is a front-server sample's change across an op.
func delta(pre, post serverView, name string) float64 {
	if len(pre) == 0 || len(post) == 0 {
		return 0
	}
	return post[0][name] - pre[0][name]
}

// encodeResponse renders a mine response the way rpserved's writeJSON
// does: an indented json.Encoder.
func encodeResponse(resp *api.MineResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(resp)
	return buf.Bytes(), err
}

// decodeRow times api.DecodeMineRequest on the op's request body.
func (t *tracer) decodeRow(r *runner, id int, parent string, op *mineOp) row {
	var err error
	d := t.timed(id, "api.decode", parent, func() { _, err = api.DecodeMineRequest(bytes.NewReader(op.body)) })
	if err != nil {
		r.note("traced run: api.DecodeMineRequest: " + err.Error())
	}
	t.sample("api.decode_us", d*1e3)
	return row{"api.decode", d, "replay"}
}

// encodeRow times the encoding of the op's answer as rpserved sends it.
func (t *tracer) encodeRow(r *runner, id int, parent string, patterns []api.Pattern) row {
	resp := &api.MineResponse{V: api.Version, Count: len(patterns), Patterns: patterns}
	var b []byte
	var err error
	d := t.timed(id, "api.encode", parent, func() { b, err = encodeResponse(resp) })
	if err != nil {
		r.note("traced run: encoding a response: " + err.Error())
	}
	t.sample("api.encode_ms", d)
	t.sample("api.response_kb", float64(len(b))/1e3)
	return row{"api.encode", d, "replay"}
}

// afterHit replays a cache hit: decode the request, encode the cached
// answer. No core work happens on a hit.
func (t *tracer) afterHit(r *runner, op *mineOp, kind string) {
	pats, err := t.patterns(op)
	if err != nil {
		r.note("traced run: " + err.Error())
		return
	}
	id, parent := t.begin(kind, op.key.String(), op.sentAt, op.lat)
	rows := []row{t.decodeRow(r, id, parent, op), t.encodeRow(r, id, parent, pats)}
	t.finish(id, rows)
}

// patterns returns the op's answer, decoding each key's once.
func (t *tracer) patterns(op *mineOp) ([]api.Pattern, error) {
	k := op.key.String()
	t.mu.Lock()
	p, ok := t.decoded[k]
	t.mu.Unlock()
	if ok {
		return p, nil
	}
	var resp api.MineResponse
	if err := json.Unmarshal(op.resp, &resp); err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.decoded[k] = resp.Patterns
	t.mu.Unlock()
	return resp.Patterns, nil
}

// heapAllocs reads the process's cumulative heap allocation.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// coreReplica mines the op's key in this process with the public tracer
// attached and records the core metrics. It returns the additive core rows
// (scan, tree build, conditional mining, finalize: they sum to the run's
// wall time), the result and that wall time.
func (t *tracer) coreReplica(r *runner, id int, parent string, op *mineOp) ([]row, *core.Result, float64) {
	db := t.dbs[op.key.DS]
	if db == nil {
		r.note("traced run: no replica database for " + op.key.DS)
		return nil, nil, 0
	}
	o, err := op.req.ToCoreOptions(db.Len())
	if err != nil {
		r.note("traced run: " + err.Error())
		return nil, nil, 0
	}
	o.Parallelism = min(o.Parallelism, t.nproc)
	o.CollectStats = true
	o.Trace = obs.NewTrace()
	var res *core.Result
	a0 := heapAllocs()
	wall := t.timed(id, "core.MineContext", parent, func() { res, err = core.MineContext(context.Background(), db, o) })
	allocs := heapAllocs() - a0
	if err != nil {
		r.note("traced run: core.MineContext: " + err.Error())
		return nil, nil, 0
	}
	ph := map[string]obs.PhaseStat{}
	for _, s := range o.Trace.Report().Phases {
		ph[s.Phase] = s
	}
	nms := func(p obs.Phase) float64 { return float64(ph[p.String()].Nanos) / 1e6 }
	scan, tree, fin := nms(obs.PhaseScan), nms(obs.PhaseTreeBuild), nms(obs.PhaseFinalize)
	// The mine phase sums per-worker task time when parallel, so its wall
	// share is what the other phases leave of the run.
	cond := wall - scan - tree - fin
	t.sample("core.scan_ms", scan)
	t.sample("core.tree_build_ms", tree)
	t.sample("core.cond_mine_ms", cond)
	t.sample("core.finalize_ms", fin)
	t.sample("core.ts_merge_ms", nms(obs.PhaseMerge))
	t.sample("core.ts_merge_count", float64(ph[obs.PhaseMerge.String()].Count))
	t.sample("core.erec_prune_count", float64(ph[obs.PhasePrune.String()].Count))
	t.sample("core.alloc_mb_per_mine", float64(allocs)/1e6)
	t.sample("core.replica_ms", wall)
	return []row{{"core.scan", scan, "replay"}, {"core.tree_build", tree, "replay"}, {"core.cond_mine", cond, "replay"}, {"core.finalize", fin, "replay"}}, res, wall
}

// onServer rescales replayed rows that sum to replayMS so that they sum
// to the server's serverMS instead, keeping the replay's shares.
func onServer(rows []row, replayMS, serverMS float64) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{r.Name, r.MS * serverMS / replayMS, "server"}
	}
	return out
}

// serverCore records what the server itself says about the op's mine: the
// MineStats it returns (the traced phase sets collectStats) and its mining
// time from /metrics. The journal row read for the op must give the same
// mining time, or the server-side rows would belong to another request.
func (t *tracer) serverCore(r *runner, op *mineOp, entry journalEntry, pre, post serverView) {
	var resp struct {
		Count int             `json:"count"`
		Stats *core.MineStats `json:"stats"`
	}
	if err := json.Unmarshal(op.resp, &resp); err != nil || resp.Stats == nil {
		r.note("traced run: response carries no stats")
	} else {
		t.sample("core.candidate_items", float64(resp.Stats.CandidateItems))
		t.sample("core.patterns_examined", float64(resp.Stats.PatternsExamined))
		t.sample("core.patterns_pruned", float64(resp.Stats.PatternsPruned))
		t.sample("core.tree_nodes", float64(resp.Stats.TreeNodes))
		t.sample("core.useful_ratio", float64(resp.Count)/math.Max(1, float64(resp.Stats.PatternsExamined)))
	}
	srv := delta(pre, post, "rpserved_mining_seconds_sum") * 1e3
	t.sample("core.server_mine_ms", srv)
	if math.Abs(srv-entry.MineMS) > 0.1+0.01*srv {
		t.mu.Lock()
		t.mismatched = append(t.mismatched, fmt.Sprintf("%s: journal mine %.3f ms, /metrics %.3f ms", op.key, entry.MineMS, srv))
		t.mu.Unlock()
	}
}

// serveView records serve's view of one closed-loop op from the front
// server's journal and metrics, and returns the newest journal row.
func (t *tracer) serveView(r *runner, post serverView) journalEntry {
	j, err := r.journal(r.fleet.front)
	if err != nil || len(j) == 0 {
		r.note("traced run: reading the journal failed")
		return journalEntry{}
	}
	t.sample("serve.queue_wait_ms", j[0].QueueMS)
	if len(post) > 0 {
		t.sample("serve.heap_inuse_mb", post[0]["go_heap_inuse_bytes"]/1e6)
		t.sample("serve.registry_mb", post[0]["rpserved_registry_bytes"]/1e6)
	}
	return j[0]
}

// afterMine replays one closed-loop mine. A cache hit replays as afterHit;
// a miss adds the core rows (the server's journalled mine time in the
// replica's phase shares) and api.PatternsFromCore; a sharded miss takes
// the coordinator's journalled mine time as its shard row and replays the
// scatter's wire and reduce steps against the peers.
func (t *tracer) afterMine(r *runner, op *mineOp, kind string, pre serverView) {
	post := t.scrape(r)
	if op.head.Cached {
		t.afterHit(r, op, "mine-hit")
		return
	}
	entry := t.serveView(r, post)
	t.serverCore(r, op, entry, pre, post)
	id, parent := t.begin(kind, op.key.String(), op.sentAt, op.lat)
	rows := []row{t.decodeRow(r, id, parent, op)}
	coreRows, res, coreWall := t.coreReplica(r, id, parent, op)
	if res == nil {
		t.finish(id, rows)
		return
	}
	if kind == "mine-shard" {
		rows = append(rows, row{"shard.mine", entry.MineMS, "server"})
		t.sample("shard.mine_ms", entry.MineMS)
		t.sample("shard.scatter_ms", delta(pre, post, `rpserved_phase_seconds_sum{phase="shard"}`)*1e3)
		t.shardReplica(r, id, parent, op, entry)
		t.sample("shard.single_box_ms", coreWall)
		t.sample("shard.wall_ms", ms(op.lat))
	} else {
		if entry.MineMS > 0 && coreWall > 0 {
			t.mu.Lock()
			t.coreRatio = append(t.coreRatio, coreWall/entry.MineMS)
			t.mu.Unlock()
			coreRows = onServer(coreRows, coreWall, entry.MineMS)
		}
		rows = append(rows, coreRows...)
	}
	db := t.dbs[op.key.DS]
	var pats []api.Pattern
	d := t.timed(id, "api.from_core", parent, func() { pats = api.PatternsFromCore(db, res.Patterns) })
	t.sample("api.from_core_ms", d)
	rows = append(rows, row{"api.from_core", d, "replay"}, t.encodeRow(r, id, parent, pats))
	t.finish(id, rows)
}

// shardReplica reads the peers' journal rows for the op's shard tasks,
// then sends the same tasks to the peers itself and times decoding their
// partial bodies and reducing them.
func (t *tracer) shardReplica(r *runner, id int, parent string, op *mineOp, entry journalEntry) {
	var tasks []float64
	for _, p := range r.fleet.all[1:] {
		j, err := r.journal(p)
		if err != nil {
			r.note("traced run: reading a peer journal: " + err.Error())
			continue
		}
		for _, e := range j {
			if e.ID == entry.ID && e.Outcome == "shard-ok" {
				tasks = append(tasks, e.ElapsedMS)
			}
		}
	}
	for _, v := range tasks {
		t.sample("shard.task_ms", v)
	}
	if m := median(tasks); m > 0 {
		mx := 0.0
		for _, v := range tasks {
			mx = math.Max(mx, v)
		}
		t.sample("shard.task_skew", mx/m)
	}

	fp, err := strconv.ParseUint(r.pins.Datasets[op.key.DS], 16, 64)
	if err != nil {
		r.note("traced run: bad pinned fingerprint")
		return
	}
	plan, err := shard.Plan(fp, shardCount)
	if err != nil {
		r.note("traced run: " + err.Error())
		return
	}
	db := t.dbs[op.key.DS]
	o, _ := op.req.ToCoreOptions(db.Len())
	o.Parallelism = min(o.Parallelism, t.nproc)
	var parts []*shard.Partial
	wire, decode := 0, 0.0
	for i, task := range plan {
		req := api.ShardMineRequest{MineRequest: api.FromCoreOptions(o), Shard: task.Index, Shards: task.Count, Fingerprint: fmt.Sprintf("%016x", fp)}
		body, _ := json.Marshal(req) // plain struct: always marshals
		peer := r.fleet.all[1+i%(len(r.fleet.all)-1)]
		res, err := r.client.Post(peer.url+"/v1/shard/mine", "application/json", bytes.NewReader(body))
		if err != nil {
			r.note("traced run: shard replay: " + err.Error())
			return
		}
		b, err := io.ReadAll(res.Body)
		_ = res.Body.Close() // fully read; nothing to learn from closing
		if err != nil || res.StatusCode != http.StatusOK {
			r.note(fmt.Sprintf("traced run: shard replay: HTTP %d %v", res.StatusCode, err))
			return
		}
		wire += len(b)
		var sr *api.ShardMineResponse
		decode += t.timed(id, "api.DecodeShardMineResponse", parent, func() { sr, err = api.DecodeShardMineResponse(bytes.NewReader(b)) })
		if err != nil {
			r.note("traced run: " + err.Error())
			return
		}
		pats, err := api.PatternsToCore(db, sr.Patterns)
		if err != nil {
			r.note("traced run: " + err.Error())
			return
		}
		parts = append(parts, &shard.Partial{Task: task, Patterns: pats})
	}
	t.sample("api.shard_decode_ms", decode)
	t.sample("shard.wire_kb", float64(wire)/1e3)
	var res *core.Result
	t.sample("shard.reduce_ms", t.timed(id, "shard.Reduce", parent, func() { res = shard.Reduce(parts) }))
	if got, want := answerDigest(api.PatternsFromCore(db, res.Patterns)), r.pins.Answers[op.key.String()]; got != want {
		r.broke("shard-scatter: reduced shard replay %s gives %s, pinned %s", op.key, got, want)
	}
}

// afterUpload replays an upload: parse the body and fingerprint the result.
// The parsed database becomes the replica for the session's mines. The
// parse row is the server's own ingest time for the upload.
func (t *tracer) afterUpload(r *runner, p poolDataset, body []byte, up uploadOp, pre serverView) {
	post := t.scrape(r)
	t.serveView(r, post)
	id, parent := t.begin("upload", p.ID, up.sentAt, up.lat)
	var db *tsdb.DB
	var err error
	parse := t.timed(id, "tsdb.ReadAnyBytes", parent, func() { db, err = tsdb.ReadAnyBytes(body) })
	if err != nil {
		r.note("traced run: tsdb.ReadAnyBytes: " + err.Error())
		t.finish(id, nil)
		return
	}
	fp := t.timed(id, "tsdb.FingerprintUncached", parent, func() { db.FingerprintUncached() })
	t.mu.Lock()
	t.dbs[p.ID] = db
	t.mu.Unlock()
	t.sample("tsdb.parse_ms", parse)
	t.sample("tsdb.parse_mb_s", float64(len(body))/1e6/(parse/1e3))
	t.sample("tsdb.fingerprint_ms", fp)
	ingest := delta(pre, post, `rpserved_phase_seconds_sum{phase="ingest"}`) * 1e3
	t.sample("tsdb.server_ingest_ms", ingest)
	t.finish(id, []row{{"tsdb.parse", ingest, "server"}, {"tsdb.fingerprint", fp, "replay"}})
}

// The traced run's breakdown is believed only within these limits. An op
// is over wall time when its rows exceed its wall time by more than
// overMS plus overShare of it: with the server's own times in the rows,
// only a replay that hit a host stall should get there, and a run may
// have one such op or maxOverFrac of its ops, whichever is more. The replayed core.MineContext
// must run within a factor coreRatioMax of the server's mine time, in the
// median over single-box misses, or the replay measured some other work.
const (
	overMS       = 1.0
	overShare    = 0.05
	maxOverFrac  = 0.05
	coreRatioMax = 2.0
)

// overWall counts the ops whose rows exceed their wall time beyond the
// tolerance.
func (t *tracer) overWall() int {
	n := 0
	for _, op := range t.ops {
		if -op.Residual > overMS+overShare*op.WallMS {
			n++
		}
	}
	return n
}

// check returns the traced run's failed cross-checks: journal rows that
// disagree with /metrics, too many ops whose rows exceed their wall time,
// and a replayed core far from the server's.
func (t *tracer) check() []string {
	var out []string
	if n := len(t.mismatched); n > 0 {
		out = append(out, fmt.Sprintf("%d ops' journal rows disagree with /metrics, e.g. %s", n, t.mismatched[0]))
	}
	over := t.overWall()
	if over > 1 && float64(over) > maxOverFrac*float64(len(t.ops)) {
		out = append(out, fmt.Sprintf("%d of %d ops have rows exceeding wall time by more than %.0f ms + %.0f%%", over, len(t.ops), overMS, 100*overShare))
	}
	if q := median(t.coreRatio); q > 0 && (q > coreRatioMax || q < 1/coreRatioMax) {
		out = append(out, fmt.Sprintf("replayed core.MineContext runs %.2fx the server's mine time (median), outside [%.1f, %.1f]", q, 1/coreRatioMax, coreRatioMax))
	}
	return out
}

// report prints the per-op breakdown: the first few ops of each kind in
// full, then each kind's mean rows.
func (t *tracer) report(w *cliio.Writer) {
	shown := map[string]int{}
	type agg struct {
		n    int
		wall float64
		rows map[string]float64
		keys []string
		res  float64
	}
	aggs := map[string]*agg{}
	var kinds []string
	for _, op := range t.ops {
		a := aggs[op.Kind]
		if a == nil {
			a = &agg{rows: map[string]float64{}}
			aggs[op.Kind] = a
			kinds = append(kinds, op.Kind)
		}
		a.n++
		a.wall += op.WallMS
		a.res += op.Residual
		for _, r := range op.Rows {
			if _, ok := a.rows[r.Name]; !ok {
				a.keys = append(a.keys, r.Name)
			}
			a.rows[r.Name] += r.MS
		}
		if shown[op.Kind] < 3 {
			shown[op.Kind]++
			fmt.Fprintf(w, "op %d %s %s: wall %.3f ms =", op.ID, op.Kind, op.Key, op.WallMS)
			for _, r := range op.Rows {
				fmt.Fprintf(w, " %s %.3f (%s) +", r.Name, r.MS, r.From)
			}
			fmt.Fprintf(w, " serve.residual %.3f\n", op.Residual)
		}
	}
	if q := median(t.coreRatio); q > 0 {
		fmt.Fprintf(w, "core cross-check: replayed core.MineContext over the server's mine time, median %.3f over %d misses (must be within [%.1f, %.1f])\n",
			q, len(t.coreRatio), 1/coreRatioMax, coreRatioMax)
	}
	over := t.overWall()
	fmt.Fprintf(w, "rows over wall time: %d of %d ops by more than %.0f ms + %.0f%% (allowed: one, or %.0f%% of ops); %d journal/metrics mismatches\n",
		over, len(t.ops), overMS, 100*overShare, 100*maxOverFrac, len(t.mismatched))
	for _, k := range kinds {
		a := aggs[k]
		fmt.Fprintf(w, "%s: %d ops, mean wall %.3f ms\n", k, a.n, a.wall/float64(a.n))
		for _, name := range a.keys {
			v := a.rows[name] / float64(a.n)
			fmt.Fprintf(w, "  %-18s %10.3f ms  %5.1f%%\n", name, v, 100*v/(a.wall/float64(a.n)))
		}
		v := a.res / float64(a.n)
		fmt.Fprintf(w, "  %-18s %10.3f ms  %5.1f%%\n", "serve.residual", v, 100*v/(a.wall/float64(a.n)))
	}
}

// write saves the spans and op tables as JSON.
func (t *tracer) write(path string) error {
	return writeJSONFile(path, struct {
		Spans []span    `json:"spans"`
		Ops   []opTable `json:"ops"`
	}{t.spans, t.ops})
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/api"
)

// runner drives one workload against one fleet and records what the client
// sees. Its methods are safe for concurrent use by the load generators.
type runner struct {
	cfg    config
	pins   *pins
	fleet  *fleet
	client *http.Client
	tr     *tracer // nil in untraced phases

	mu        sync.Mutex
	mineLat   []float64 // ms, successful mines of the current phase
	uploadLat []float64 // ms, successful uploads of the current phase
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	checkTime time.Duration
	fullCheck map[string]bool // keys whose full answer this run has checked
	broken    []string        // workload invariants that failed
	notes     []string        // conditions worth reporting that are not failures

	// With deferChecks set, sampled full checks of keys already checked
	// once wait in pending until checkPending, outside the measuring
	// window: decoding a multi-megabyte answer on a sender would stall
	// the open loop behind it.
	deferChecks bool
	pending     []pendingCheck

	// Workload positions, kept across the phases of one run so that no
	// fresh key repeats.
	cold     *coldState
	uploads  *uploadState
	hotPhase int
}

func newRunner(cfg config, p *pins) *runner {
	return &runner{
		cfg:  cfg,
		pins: p,
		client: &http.Client{Transport: &http.Transport{
			// The generator stays within nproc connections.
			MaxConnsPerHost:     cfg.nproc,
			MaxIdleConnsPerHost: cfg.nproc,
			DisableCompression:  true,
		}},
		fullCheck: map[string]bool{},
	}
}

// fail records a failed op: a non-2xx reply, a transport error or a wrong
// answer.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// broke records a failed workload invariant: the run is not correct.
func (r *runner) broke(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

// note records a condition the report should show once.
func (r *runner) note(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.notes {
		if n == msg {
			return
		}
	}
	r.notes = append(r.notes, msg)
}

func (r *runner) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// post sends one request and reads the whole reply, timing from the first
// request byte to the last response byte.
func (r *runner) post(url string, body []byte) (status int, resp []byte, d time.Duration, err error) {
	start := now()
	res, err := r.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(res.Body)
	d = time.Since(start)
	_ = res.Body.Close() // fully read; a close error changes nothing
	return res.StatusCode, resp, d, err
}

// mineOp is one POST /v1/mine and what came back.
type mineOp struct {
	key    cell
	req    api.MineRequest
	body   []byte // request body
	resp   []byte
	lat    time.Duration
	head   mineHead
	ok     bool
	sentAt time.Time
}

// mineRequest builds the wire request for key. Served datasets are
// addressed by name, uploaded ones by fingerprint.
func mineRequest(key cell, dataset string, par int) api.MineRequest {
	req := api.MineRequest{Per: key.Per, MinPS: key.MinPS, MinRec: key.MinRec, Parallelism: par}
	if dataset != "" {
		req.Dataset = dataset
	} else {
		req.DB = key.DS
	}
	return req
}

// mine sends one mine request and checks the answer: the count always,
// the full pattern set when full is set or the key's answer has not been
// fully checked in this run yet.
func (r *runner) mine(key cell, dataset string, par int, full bool) *mineOp {
	op := &mineOp{key: key, req: mineRequest(key, dataset, par)}
	// The traced phase asks for the server's search statistics.
	op.req.CollectStats = r.tr != nil
	op.body, _ = json.Marshal(op.req) // a struct of strings and ints always marshals
	r.attempt()
	op.sentAt = now()
	status, resp, d, err := r.post(r.fleet.front.url+"/v1/mine", op.body)
	op.resp, op.lat = resp, d
	switch {
	case err != nil:
		r.fail("%s: %v", key, err)
		return op
	case status != http.StatusOK:
		r.fail("%s: HTTP %d: %.200s", key, status, resp)
		return op
	}
	cstart := now()
	head, err := r.pins.checkCount(key, resp)
	if err == nil {
		r.mu.Lock()
		first := !r.fullCheck[key.String()]
		deferred := full && !first && r.deferChecks
		if deferred {
			r.pending = append(r.pending, pendingCheck{key, resp})
		}
		r.mu.Unlock()
		if (full || first) && !deferred {
			err = r.pins.checkFull(key, resp)
		}
		full = full || first
	}
	r.mu.Lock()
	r.checkTime += time.Since(cstart)
	if err == nil && full {
		r.fullCheck[key.String()] = true
	}
	r.mu.Unlock()
	if err != nil {
		r.fail("%v", err)
		return op
	}
	op.head, op.ok = head, true
	return op
}

type pendingCheck struct {
	key  cell
	body []byte
}

// checkPending runs the deferred full checks; a wrong answer is a failed
// op.
func (r *runner) checkPending() {
	r.mu.Lock()
	pending := r.pending
	r.pending = nil
	r.mu.Unlock()
	for _, p := range pending {
		start := now()
		err := r.pins.checkFull(p.key, p.body)
		r.mu.Lock()
		r.checkTime += time.Since(start)
		r.mu.Unlock()
		if err != nil {
			r.fail("%v", err)
		}
	}
}

// record adds a successful mine's latency to the phase's sample.
func (r *runner) record(lat time.Duration) {
	r.mu.Lock()
	r.mineLat = append(r.mineLat, ms(lat))
	r.mu.Unlock()
}

// uploadOp is one POST /v1/datasets.
type uploadOp struct {
	fp      string
	evicted int
	sentAt  time.Time
	lat     time.Duration
	ok      bool
}

// upload registers one pool dataset and checks that the server computed
// the pinned fingerprint for it.
func (r *runner) uploadOne(p poolDataset, body []byte) uploadOp {
	r.attempt()
	sent := now()
	status, resp, d, err := r.post(r.fleet.front.url+"/v1/datasets", body)
	op := uploadOp{sentAt: sent, lat: d}
	switch {
	case err != nil:
		r.fail("upload %s: %v", p.ID, err)
		return op
	case status != http.StatusCreated && status != http.StatusOK:
		r.fail("upload %s: HTTP %d: %.200s", p.ID, status, resp)
		return op
	}
	var u struct {
		Fingerprint string `json:"fingerprint"`
		Evicted     int    `json:"evicted"`
	}
	if err := json.Unmarshal(resp, &u); err != nil {
		r.fail("upload %s: %v", p.ID, err)
		return op
	}
	if want := r.pins.Datasets[p.ID]; u.Fingerprint != want {
		r.fail("upload %s: fingerprint %s, pinned %s", p.ID, u.Fingerprint, want)
		return op
	}
	op.fp, op.evicted, op.ok = u.Fingerprint, u.Evicted, true
	r.mu.Lock()
	r.uploadLat = append(r.uploadLat, ms(d))
	r.mu.Unlock()
	return op
}

// get fetches a path from one server.
func (r *runner) get(s *server, path string) ([]byte, error) {
	res, err := r.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, res.StatusCode)
	}
	return b, nil
}

// metrics scrapes one server's /metrics.
func (r *runner) metrics(s *server) (map[string]float64, error) {
	b, err := r.get(s, "/metrics")
	if err != nil {
		return nil, err
	}
	return promSamples(b), nil
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Metrics struct {
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
	} `json:"metrics"`
	Databases []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
	} `json:"databases"`
}

func (r *runner) stats(s *server) (serverStats, error) {
	var st serverStats
	b, err := r.get(s, "/v1/stats")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(b, &st)
	return st, err
}

// journalEntry is the part of a /debug/requests row the benchmark reads.
type journalEntry struct {
	ID        string  `json:"id"`
	Outcome   string  `json:"outcome"`
	QueueMS   float64 `json:"queueMS"`
	MineMS    float64 `json:"mineMS"`
	ElapsedMS float64 `json:"elapsedMS"`
}

// journal returns a server's retained journal rows, newest first.
func (r *runner) journal(s *server) ([]journalEntry, error) {
	b, err := r.get(s, "/debug/requests?format=json")
	if err != nil {
		return nil, err
	}
	var j struct {
		Recent []journalEntry `json:"recent"`
	}
	err = json.Unmarshal(b, &j)
	return j.Recent, err
}

// checkServed verifies that every served database has the pinned
// fingerprint: the pinned answers hold only for those bytes.
func (r *runner) checkServed(s *server, names []string) error {
	st, err := r.stats(s)
	if err != nil {
		return err
	}
	got := map[string]string{}
	for _, d := range st.Databases {
		got[d.Name] = d.Fingerprint
	}
	for _, n := range names {
		if got[n] != r.pins.Datasets[n] {
			return fmt.Errorf("served %s has fingerprint %q, pinned %q", n, got[n], r.pins.Datasets[n])
		}
	}
	return nil
}

// takePhase returns and resets the phase's latency samples.
func (r *runner) takePhase() (mine, upload []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mine, upload = r.mineLat, r.uploadLat
	r.mineLat, r.uploadLat = nil, nil
	return mine, upload
}

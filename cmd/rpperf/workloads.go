package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix. start brings its fleet up to ready (set-up,
// timed); measure drives load for d and reports the phase. BENCHMARK.json
// and README.md say why each exists.
type workload struct {
	name    string
	start   func(ctx context.Context, r *runner) (*fleet, error)
	measure func(ctx context.Context, r *runner, d time.Duration) phase
}

// phase is what one measuring window produced.
type phase struct {
	elapsed time.Duration
	ops     int     // completed ops
	opsPerS float64 // completions per second (hot-repeat: its capacity phase)
	mine    []float64
	upload  []float64
	late    []float64 // open-loop dispatch lateness, ms
}

var workloads = []workload{
	{name: "cold-sweep", start: startServed(false), measure: measureCold},
	{name: "hot-repeat", start: startServed(true), measure: measureHot},
	{name: "upload-session", start: startUpload, measure: measureUpload},
	{name: "shard-scatter", start: startShard, measure: measureShard},
}

// servedArgs are the -dataset flags of every served dataset.
func servedArgs() []string {
	var args []string
	for _, d := range served {
		args = append(args, "-dataset", d.flag())
	}
	return args
}

func servedNames() []string {
	var out []string
	for _, d := range served {
		out = append(out, d.Name)
	}
	return out
}

// baseArgs are flags every benchmark server gets: continuous profiling off,
// so a capture never lands inside one run and not another.
var baseArgs = []string{"-profile-interval", "0"}

func (r *runner) logPath(name string) string {
	return filepath.Join(r.cfg.work, name+".log")
}

// startServed starts one rpserved over the served datasets; with warm set
// it also mines every hot key once, which fills the result cache.
func startServed(warm bool) func(ctx context.Context, r *runner) (*fleet, error) {
	return func(ctx context.Context, r *runner) (*fleet, error) {
		s, err := startServer(ctx, r.cfg.bin, append(append([]string{}, baseArgs...), servedArgs()...), r.logPath("rpserved"))
		if err != nil {
			return nil, err
		}
		f := &fleet{front: s, all: []*server{s}}
		r.fleet = f
		if err := r.checkServed(s, servedNames()); err != nil {
			f.stop()
			return nil, err
		}
		if warm {
			if err := warmHot(r); err != nil {
				f.stop()
				return nil, err
			}
		}
		return f, nil
	}
}

// warmHot mines every hot key once from nproc clients, checking each full
// answer.
func warmHot(r *runner) error {
	keys := make(chan cell)
	var wg sync.WaitGroup
	var failed sync.Once
	var ferr error
	for w := 0; w < r.cfg.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if op := r.mine(k, "", r.cfg.nproc, true); !op.ok {
					failed.Do(func() { ferr = fmt.Errorf("warming %s failed", k) })
				}
			}
		}()
	}
	for _, k := range hotKeys {
		keys <- k
	}
	close(keys)
	wg.Wait()
	return ferr
}

// sweepPos hands out a sweep's fresh keys in order from a seeded offset.
type sweepPos struct {
	sw        sweep
	off, next int
}

func newSweepPos(sw sweep, r *rand.Rand) *sweepPos {
	return &sweepPos{sw: sw, off: r.IntN(sw.Offsets)}
}

// key returns the next fresh key, or false once the pinned universe is
// used up.
func (p *sweepPos) key() (cell, bool) {
	if p.next >= p.sw.Steps {
		return cell{}, false
	}
	c := p.sw.Base.at(p.off + p.next)
	p.next++
	return c, true
}

// exhausted is the note of a phase that drew every pinned key of a sweep
// and ended early. Re-pin with more steps if a faster program reaches it.
const exhausted = "pinned key universe exhausted; the phase ended early"

// coldState is the sweep positions of cold-sweep and shard-scatter, kept
// across the phases of one run so no key repeats.
type coldState struct {
	pos   []*sweepPos
	order *rand.Rand
	n     int // requests sent, for the parallelism alternation
}

func newColdState(seed uint64, sweeps []sweep) *coldState {
	rng := newRNG(seed, streamKeys)
	st := &coldState{order: rng}
	for _, sw := range sweeps {
		st.pos = append(st.pos, newSweepPos(sw, rng))
	}
	return st
}

// rounds sizes a closed-loop phase: the number of rounds of roundSeconds
// (one round's duration on the parent commit, frozen) that fill d. Every
// commit then measures the same requests, the same mix of cells and the
// same sample count; a faster program finishes the phase sooner.
func rounds(d time.Duration, roundSeconds float64) int {
	return max(1, int(math.Round(d.Seconds()/roundSeconds)))
}

// closedRounds runs n rounds of fresh-key mines from one client: each
// round mines every sweep PerRound times in a seeded order, and
// parallelism alternates between 1 and nproc from request to request, so
// every run holds the same mix of cells and both miners.
func closedRounds(ctx context.Context, r *runner, n int, sweeps []sweep, traceKind string) phase {
	if r.cold == nil {
		r.cold = newColdState(r.cfg.seed, sweeps)
	}
	st := r.cold
	start := now()
	var ph phase
loop:
	for round := 0; round < n && ctx.Err() == nil; round++ {
		for _, i := range st.order.Perm(len(st.pos)) {
			for rep := 0; rep < st.pos[i].sw.PerRound; rep++ {
				key, ok := st.pos[i].key()
				if !ok {
					r.note(exhausted)
					break loop
				}
				par := 1
				if st.n%2 == 1 {
					par = r.cfg.nproc
				}
				st.n++
				var pre serverView
				if r.tr != nil {
					pre = r.tr.scrape(r)
				}
				op := r.mine(key, "", par, true)
				if op.ok {
					r.record(op.lat)
					ph.ops++
				}
				if r.tr != nil && op.ok {
					r.tr.afterMine(r, op, traceKind, pre)
				}
			}
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// coldRoundSeconds is one cold-sweep round (8 mines) on the parent commit
// on a 2-vCPU host.
const coldRoundSeconds = 2.7

func measureCold(ctx context.Context, r *runner, d time.Duration) phase {
	before, err := r.stats(r.fleet.front)
	ph := closedRounds(ctx, r, rounds(d, coldRoundSeconds), coldSweeps, "mine-miss")
	after, err2 := r.stats(r.fleet.front)
	if err := errors.Join(err, err2); err != nil {
		r.broke("cold-sweep: reading /v1/stats: %v", err)
	} else if hits := after.Metrics.CacheHits - before.Metrics.CacheHits; hits != 0 {
		r.broke("cold-sweep: %d cache hits, want 0 (every key must be fresh)", hits)
	}
	return ph
}

// hotRate is hot-repeat's open-loop arrival rate, frozen so that every run
// and every commit is offered the same load. It is about a tenth of the
// ~400/s its closed-loop phase measured on the parent commit on a 2-vCPU
// host. At half that capacity the open loop sat at the knee of the latency
// curve and its p50 swung threefold from seed to seed; at a fifth, host
// CPU steal still queued requests behind 3 MB responses often enough that
// the tail (the 11th-slowest of ~960) varied 2.5-fold between runs. At
// 40/s the open phase sends ~400 requests, so the tail sits near p97.5,
// among the 3 MB responses rather than among the stalls.
const hotRate = 40.0

// hotZipfS is the Zipf exponent of hot-repeat's key popularity, and
// hotDeckSize the size of the deck its keys are dealt from.
const (
	hotZipfS    = 1.0
	hotDeckSize = 1000
)

// hotFullSample is the share of hot-repeat responses whose full answer is
// checked beyond the first per key; every response's count is checked.
const hotFullSample = 1.0 / 32

// hotTraceSample is the share of hot-repeat ops a traced run replays.
const hotTraceSample = 1.0 / 8

// measureHot runs the open-loop phase (half of d) at hotRate, then the
// closed-loop capacity phase with nproc clients.
func measureHot(ctx context.Context, r *runner, d time.Duration) phase {
	before, err := r.stats(r.fleet.front)
	if err != nil {
		r.broke("hot-repeat: reading /v1/stats: %v", err)
	}
	r.hotPhase++
	seed := r.cfg.seed + uint64(r.hotPhase)<<32

	openD := d / 2
	dues := poissonDues(newRNG(seed, streamArrivals), hotRate, openD)
	keys := make([]int, len(dues))
	full := make([]bool, len(dues))
	traced := make([]bool, len(dues))
	deck := zipfDeck(len(hotKeys), hotZipfS, hotDeckSize, newRNG(seed, streamKeys))
	sr := newRNG(seed, streamSample)
	for i := range dues {
		keys[i] = deck[i%len(deck)]
		full[i] = sr.Float64() < hotFullSample
		traced[i] = sr.Float64() < hotTraceSample
	}
	ok := make([]bool, len(dues))
	r.deferChecks = true
	defer func() { r.deferChecks = false }()
	start := now()
	lat, late, sent := openLoop(ctx, start, dues, r.cfg.nproc, func(i int) time.Time {
		op := r.mine(hotKeys[keys[i]], "", 1, full[i])
		end := op.sentAt.Add(op.lat)
		ok[i] = op.ok
		if op.ok && r.tr != nil && traced[i] {
			r.tr.afterHit(r, op, "mine-hit")
		}
		return end
	})
	var ph phase
	for i := range dues {
		if !sent[i] {
			continue
		}
		ph.late = append(ph.late, ms(late[i]))
		if ok[i] {
			r.record(lat[i])
			ph.ops++
		}
	}

	// Capacity: nproc closed-loop clients for the rest of d.
	capD := d - openD
	capStart := now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	capOps := 0
	for w := 0; w < r.cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kr := newRNG(seed, streamWorker+uint64(w))
			deck := zipfDeck(len(hotKeys), hotZipfS, hotDeckSize, kr)
			n := 0
			for time.Since(capStart) < capD && ctx.Err() == nil {
				op := r.mine(hotKeys[deck[n%len(deck)]], "", 1, kr.Float64() < hotFullSample)
				if op.ok {
					n++
				}
			}
			mu.Lock()
			capOps += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	capElapsed := time.Since(capStart)
	ph.ops += capOps
	ph.opsPerS = float64(capOps) / capElapsed.Seconds()
	ph.elapsed = time.Since(start)
	r.checkPending()

	after, err := r.stats(r.fleet.front)
	if err != nil {
		r.broke("hot-repeat: reading /v1/stats: %v", err)
		return ph
	}
	hits := after.Metrics.CacheHits - before.Metrics.CacheHits
	misses := after.Metrics.CacheMisses - before.Metrics.CacheMisses
	if ratio := float64(hits) / float64(max(hits+misses, 1)); ratio < 0.99 {
		r.broke("hot-repeat: cache hit ratio %.4f after warm-up, want >= 0.99", ratio)
	}
	return ph
}

// poolRegistryBytes is upload-session's -registry-bytes: below the pool's
// total estimated resident size, so every pass through the pool evicts.
const poolRegistryBytes = 3 << 20

func startUpload(ctx context.Context, r *runner) (*fleet, error) {
	spill := filepath.Join(r.cfg.work, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, err
	}
	args := append(append([]string{}, baseArgs...),
		"-registry-bytes", strconv.Itoa(poolRegistryBytes), "-spill-dir", spill)
	s, err := startServer(ctx, r.cfg.bin, args, r.logPath("rpserved"))
	if err != nil {
		return nil, err
	}
	f := &fleet{front: s, all: []*server{s}}
	r.fleet = f
	return f, nil
}

// uploadState is upload-session's position, kept across phases.
type uploadState struct {
	next     int // pool index of the next session
	pos      []*sweepPos
	rng      *rand.Rand
	sessions int
	evicted  int // evictions in the current pass
}

func newUploadState(seed uint64) *uploadState {
	rng := newRNG(seed, streamKeys)
	st := &uploadState{next: rng.IntN(len(pool)), rng: rng}
	for _, p := range pool {
		st.pos = append(st.pos, newSweepPos(p.Sweep, rng))
	}
	return st
}

// poolBodies generates every pool dataset's upload body. Generation is
// input building, outside set-up.
func poolBodies() ([][]byte, error) {
	out := make([][]byte, len(pool))
	for i, p := range pool {
		_, b, err := p.generate()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// uploadPassSeconds is one pass of sessions through the pool on the
// parent commit on a 2-vCPU host.
const uploadPassSeconds = 1.6

// measureUpload runs whole passes of sessions through the pool, sized to d
// as closed-loop rounds are: each session uploads the next pool dataset,
// mines it with three fresh keys, then repeats one of them, which must hit
// the cache.
func measureUpload(ctx context.Context, r *runner, d time.Duration) phase {
	if r.uploads == nil {
		r.uploads = newUploadState(r.cfg.seed)
	}
	st := r.uploads
	start := now()
	var ph phase
	for n := rounds(d, uploadPassSeconds) * len(pool); n > 0 && ctx.Err() == nil; n-- {
		i := st.next % len(pool)
		st.next++
		p := pool[i]
		var pre serverView
		if r.tr != nil {
			pre = r.tr.scrape(r)
		}
		up := r.uploadOne(p, r.cfg.pool[i])
		if !up.ok {
			continue
		}
		ph.ops++
		if r.tr != nil {
			r.tr.afterUpload(r, p, r.cfg.pool[i], up, pre)
		}
		st.evicted += up.evicted
		var keys []cell
		for k := 0; k < 3; k++ {
			key, ok := st.pos[i].key()
			if !ok {
				r.note(exhausted)
				ph.elapsed = time.Since(start)
				return ph
			}
			keys = append(keys, key)
			if r.tr != nil {
				pre = r.tr.scrape(r)
			}
			op := r.mine(key, up.fp, 1, true)
			if op.ok {
				r.record(op.lat)
				ph.ops++
				if r.tr != nil {
					r.tr.afterMine(r, op, "mine-miss", pre)
				}
			}
		}
		op := r.mine(keys[st.rng.IntN(3)], up.fp, 1, false)
		if op.ok {
			if !op.head.Cached {
				r.broke("upload-session: repeated key %s missed the cache", op.key)
			}
			r.record(op.lat)
			ph.ops++
			if r.tr != nil {
				r.tr.afterHit(r, op, "mine-hit")
			}
		}
		st.sessions++
		if st.sessions%len(pool) == 0 {
			if st.evicted == 0 {
				r.broke("upload-session: a pass through the %d-dataset pool evicted nothing", len(pool))
			}
			st.evicted = 0
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// startShard starts two peers over the Shop-14 dataset, then a
// coordinator that scatters each mine as four shard tasks over them.
func startShard(ctx context.Context, r *runner) (*fleet, error) {
	shop := []string{"-dataset", served[0].flag()}
	peerArgs := append(append([]string{}, baseArgs...), shop...)
	peers := make([]*server, len(peerPorts))
	errs := make([]error, len(peerPorts))
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := append([]string{"-listen", fmt.Sprintf("127.0.0.1:%d", peerPorts[i])}, peerArgs...)
			peers[i], errs[i] = startServer(ctx, r.cfg.bin, args, r.logPath(fmt.Sprintf("peer%d", i)))
		}(i)
	}
	wg.Wait()
	f := &fleet{}
	for _, p := range peers {
		if p != nil {
			f.all = append(f.all, p)
		}
	}
	if err := errors.Join(errs...); err != nil {
		f.stop()
		return nil, err
	}
	urls := []string{peers[0].url, peers[1].url}
	coordArgs := append(append(append([]string{}, baseArgs...), shop...),
		"-peers", strings.Join(urls, ","), "-shards", strconv.Itoa(shardCount))
	coord, err := startServer(ctx, r.cfg.bin, coordArgs, r.logPath("coordinator"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = coord
	f.all = append([]*server{coord}, f.all...)
	r.fleet = f
	if err := r.checkServed(coord, []string{"shop14"}); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// shardCount is shard-scatter's -shards.
const shardCount = 4

// peerPorts are the shard peers' fixed loopback ports. The coordinator's
// consistent-hash ring salts task placement with the peer URLs, so on
// ports picked by the kernel the four tasks split 2/2 in one run and 1/3
// in the next, and each run measured a different fleet.
var peerPorts = [2]int{47311, 47312}

// shardRoundSeconds is one shard-scatter round (8 mines) on the parent
// commit on a 2-vCPU host.
const shardRoundSeconds = 2.2

func measureShard(ctx context.Context, r *runner, d time.Duration) phase {
	return closedRounds(ctx, r, rounds(d, shardRoundSeconds), shardSweeps, "mine-shard")
}

package core

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// Mine discovers the complete set of recurring patterns in db under the
// thresholds in o using the RP-growth algorithm (paper Section 4): one scan
// builds the RP-list of candidate items, a second scan builds the RP-tree,
// and bottom-up pattern growth with Erec pruning enumerates the patterns.
//
// The result is canonically ordered (by pattern length, then item IDs).
// Mine is not cancellable; long-running callers should use MineContext.
func Mine(db *tsdb.DB, o Options) (*Result, error) {
	//rpvet:allow ctxflow — Mine is the documented non-cancellable compat wrapper; the root it mints is the API contract
	return MineContext(context.Background(), db, o)
}

// MineContext is Mine with cancellation: when ctx is cancelled (or its
// deadline passes), mining stops at the next subtree-task boundary — the
// workers of a parallel run observe ctx between top-level subtree tasks,
// a sequential run between tree ranks and conditional trees — and a
// *CancelError wrapping ctx.Err() is returned instead of a result. With
// Options.CollectStats set, the CancelError carries the partial search
// statistics accumulated up to the stop.
//
// Contexts that can never fire (context.Background) add no per-task cost.
func MineContext(ctx context.Context, db *tsdb.DB, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &CancelError{Err: err}
	}
	defer o.Trace.StartTotal().End()
	res := &Result{}
	tree := buildTree(ctx, db, o, res)
	if tree == nil {
		return res, nil
	}
	cancelled := false
	if o.Parallelism > 1 {
		cancelled = mineParallel(ctx, tree, o, res)
	} else {
		obs.DoPhase(ctx, obs.PhaseMine, func(ctx context.Context) {
			m := newMiner(o)
			m.res, m.done = res, ctx.Done()
			m.mineTree(tree, nil, 1)
			m.lc.Flush(m.tr)
			cancelled = m.cancelled
		})
	}
	return finish(ctx, o, res, cancelled)
}

// buildTree runs RP-growth's two database scans, the RP-list (Algorithm 1)
// and the initial RP-tree (Algorithm 2), and records their statistics in
// res when o asks for them. It returns nil when no item is a candidate.
// Each scan runs under a phase pprof label (plus whatever request labels
// the caller attached via obs.WithMineLabels), so a continuous-profiling
// CPU capture attributes its samples to algorithm phases.
func buildTree(ctx context.Context, db *tsdb.DB, o Options, res *Result) *rpTree {
	var list *RPList
	obs.DoPhase(ctx, obs.PhaseScan, func(context.Context) {
		sp := o.Trace.Start(obs.PhaseScan)
		list = BuildRPList(db, o)
		sp.End()
	})
	if o.CollectStats {
		res.Stats.CandidateItems = len(list.Candidates)
	}
	if len(list.Candidates) == 0 {
		return nil
	}
	var tree *rpTree
	obs.DoPhase(ctx, obs.PhaseTreeBuild, func(context.Context) {
		sp := o.Trace.Start(obs.PhaseTreeBuild)
		tree = buildRPTree(db, list)
		sp.End()
	})
	if o.CollectStats {
		res.Stats.TreeNodes += tree.nodes
	}
	return tree
}

// finish ends a mining run: a *CancelError (carrying the partial
// statistics when o collects them) if it was cancelled, else res in
// canonical order.
func finish(ctx context.Context, o Options, res *Result, cancelled bool) (*Result, error) {
	if cancelled {
		cerr := &CancelError{Err: ctx.Err()}
		if o.CollectStats {
			cerr.Stats = res.Stats
		}
		return nil, cerr
	}
	obs.DoPhase(ctx, obs.PhaseFinalize, func(context.Context) {
		sp := o.Trace.Start(obs.PhaseFinalize)
		res.Canonicalize()
		sp.End()
	})
	return res, nil
}

// miner carries the mining context of one RP-growth run: the thresholds, the
// output sink, and the reusable memory of the hot path — the conditional
// tree arena (reset, not freed, between recursions) and the tree scratch.
// A miner is single-goroutine state; the parallel mode gives each worker its
// own and merges their results deterministically afterwards.
type miner struct {
	o         Options
	res       *Result            // accumulating sink (Mine, mineParallel)
	fn        func(Pattern) bool // streaming sink (MineFunc); stops when false
	stop      bool               // set once fn returned false or ctx fired
	done      <-chan struct{}    // ctx.Done(); nil when not cancellable
	cancelled bool               // set once done fired (distinguishes fn stop)
	arena     nodeArena          // conditional-tree slab
	sc        mineScratch

	// tr is the run's shared phase tracer (nil when untraced); lc batches
	// this miner's observations between flushes, which happen once per
	// top-level subtree task so the atomics stay out of the hot loops.
	tr *obs.Trace
	lc obs.Local
}

// newMiner builds a miner for o, wiring the tracer into the tree scratch
// (which times posting splits and counts conditional-tree prunes) when a
// trace is attached.
func newMiner(o Options) *miner {
	m := &miner{o: o}
	if o.Trace != nil {
		m.tr = o.Trace
		m.sc.lc = &m.lc
	}
	return m
}

// mineTree is Algorithm 4 (RP-growth): process the tree's items bottom-up;
// for each item, take the suffix pattern's timestamp list, apply the Erec
// candidate check, evaluate recurrence (Algorithm 5), recurse into the
// conditional tree, and push a conditional tree's ts-lists up for the next
// iteration. At depth 1 (the initial tree) every rank is one top-level
// subtree task, the unit the parallel and shard miners hand to workers.
//
// Cancellation is observed once per rank — task granularity, so the check
// never runs inside the ts-list or tree-walk hot loops.
func (m *miner) mineTree(t *rpTree, suffix []tsdb.ItemID, depth int) {
	if m.res != nil && m.o.CollectStats && depth > m.res.Stats.MaxDepth {
		m.res.Stats.MaxDepth = depth
	}
	for r := len(t.order) - 1; r >= 0 && !m.stop; r-- {
		if m.checkCancel() {
			return
		}
		if depth == 1 {
			m.mineTask(t, r)
			continue
		}
		m.mineRank(t, r, suffix, depth)
		t.pushUp(r)
	}
}

// mineTask mines the initial tree's rank r as one top-level subtree task.
// Traced, it attributes the task's wall time to the mining phase (and, when
// a timeline is attached, retains the task as a span) and publishes the
// batch accumulated during it.
func (m *miner) mineTask(t *rpTree, r int) {
	if m.tr == nil {
		m.mineRank(t, r, nil, 1)
		return
	}
	sp := m.tr.StartTask(m.taskLabel(t.order[r]), &m.lc)
	m.mineRank(t, r, nil, 1)
	sp.End(&m.lc)
	m.lc.Flush(m.tr)
}

// taskLabel names a top-level subtree task by its suffix item, the label
// retained timeline spans carry. The string is only built when a timeline
// is actually attached, so the traced-aggregate-only path allocates
// nothing extra per task.
func (m *miner) taskLabel(item tsdb.ItemID) string {
	if m.tr.Timeline() == nil {
		return ""
	}
	return "item=" + strconv.Itoa(int(item))
}

// mineRank evaluates the pattern beta = suffix + order[r] and recurses into
// its conditional tree when the Erec bound allows supersets to recur. The
// conditional tree is carved from the miner's arena, and the lists it was
// handed from the miner's tsStack; both are reclaimed (reset) as soon as
// its subtree has been mined.
//
// TS^beta is read, never merged: the initial tree's rank r posting list,
// or the list conditionalTree handed down to a conditional tree after
// already applying the candidate check.
func (m *miner) mineRank(t *rpTree, r int, suffix []tsdb.ItemID, depth int) {
	var tids []int64
	if t.post != nil {
		tids, _ = t.post.rank(r)
	} else {
		tids = m.sc.held.list(t.held + r)
	}
	m.sc.ts = gatherTS(m.sc.ts[:0], tids, t.tsOf)
	rec, ipi, ok := m.examine(m.sc.ts, t.post != nil)
	if !ok {
		return
	}

	beta := make([]tsdb.ItemID, 0, len(suffix)+1)
	beta = append(beta, suffix...)
	beta = append(beta, t.order[r])
	if rec >= m.o.MinRec {
		m.emit(beta, len(tids), rec, ipi)
	}
	if m.stop || (m.o.MaxLen > 0 && len(beta) >= m.o.MaxLen) {
		return
	}
	mark, held := m.arena.mark(), m.sc.held.mark()
	if cond := t.conditionalTree(&m.arena, &m.sc, m.o, r, tids); cond != nil {
		if m.res != nil && m.o.CollectStats {
			m.res.Stats.TreeNodes += cond.nodes
		}
		m.mineTree(cond, beta, depth+1)
	}
	m.arena.reset(mark)
	m.sc.held.reset(held)
}

// examine applies the candidate check to TS^beta and, when it passes,
// computes the recurrence (Algorithm 5). check is false for a handed-down
// list, which passed the check in conditionalTree. ok is false when neither
// beta nor any superset can recur.
func (m *miner) examine(ts []int64, check bool) (rec int, ipi []Interval, ok bool) {
	if len(ts) == 0 {
		return 0, nil, false
	}
	if check && m.o.candidateErec(ts) < m.o.MinRec {
		if m.res != nil && m.o.CollectStats {
			m.res.Stats.PatternsPruned++
		}
		if m.tr != nil {
			m.lc.Observe(obs.PhasePrune, 0, 1)
		}
		return 0, nil, false
	}
	if m.res != nil && m.o.CollectStats {
		m.res.Stats.PatternsExamined++
	}
	rec, ipi = Recurrence(ts, m.o.Per, m.o.MinPS)
	return rec, ipi, true
}

// emit delivers one recurring pattern to the miner's sink.
func (m *miner) emit(beta []tsdb.ItemID, support, rec int, ipi []Interval) {
	items := make([]tsdb.ItemID, len(beta))
	copy(items, beta)
	slices.Sort(items)
	p := Pattern{
		Items:      items,
		Support:    support,
		Recurrence: rec,
		Intervals:  ipi,
	}
	if m.fn != nil {
		if !m.fn(p) {
			m.stop = true
		}
		return
	}
	m.res.Patterns = append(m.res.Patterns, p)
}

// mineParallel mines the top-level suffix items with a fixed pool of
// Parallelism workers; it is mineRanks over every rank of the tree.
func mineParallel(ctx context.Context, t *rpTree, o Options, res *Result) (cancelled bool) {
	ranks := make([]int, len(t.order))
	for i := range ranks {
		ranks[i] = i
	}
	return mineRanks(ctx, t, o, res, ranks)
}

// mineRanks mines the given top-level ranks of t with a fixed pool of
// Parallelism workers (minimum one) pulling rank indexes from a shared
// atomic queue, so a heavy suffix item no longer serializes the tail of the
// run the way the old goroutine-per-item semaphore did. The initial tree is
// read-only in every mode, so the workers share it; each mines a rank as
// one mineTask, exactly as the sequential miner does. Each rank's partial
// result has exactly one writer, and partials are merged in deterministic
// rank order after the pool drains — which is what makes a shard-restricted
// rank subset (core.MineShardContext) produce exactly the patterns the full
// mine attributes to those ranks.
//
// ranks must be sorted ascending and duplicate-free; the parallel mode
// passes every rank, the shard mode the ranks its ShardSpec owns.
//
// Workers observe ctx between subtree tasks (and, via mineTree, between the
// ranks within one task); once it fires they stop claiming ranks and the
// pool drains. The cancelled return still carries merged partial stats.
func mineRanks(ctx context.Context, t *rpTree, o Options, res *Result, ranks []int) (cancelled bool) {
	partial := make([]Result, len(ranks))
	workers := o.Parallelism
	if workers > len(ranks) {
		workers = len(ranks)
	}
	if workers < 1 {
		workers = 1
	}
	done := ctx.Done()
	var stopped atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker runs under phase=mine pprof labels; request-scoped
			// labels (request_id, dataset_fp) are inherited from ctx, so a
			// CPU capture taken mid-run attributes worker samples to the
			// request that spawned them.
			obs.DoPhase(ctx, obs.PhaseMine, func(context.Context) { mineWorker(t, o, done, ranks, partial, &next, &stopped) })
		}()
	}
	wg.Wait()
	for i := range partial {
		res.Patterns = append(res.Patterns, partial[i].Patterns...)
		res.Stats.PatternsExamined += partial[i].Stats.PatternsExamined
		res.Stats.PatternsPruned += partial[i].Stats.PatternsPruned
		res.Stats.TreeNodes += partial[i].Stats.TreeNodes
		if partial[i].Stats.MaxDepth > res.Stats.MaxDepth {
			res.Stats.MaxDepth = partial[i].Stats.MaxDepth
		}
	}
	return stopped.Load()
}

// mineWorker is one pool worker's loop: claim rank indexes from the shared
// queue, mine each claimed rank's subtree into its partial slot, and stop
// once ctx fired (done) or the queue drains. Extracted from the goroutine
// literal in mineRanks so the pprof.Do phase wrapper stays a one-liner.
func mineWorker(t *rpTree, o Options, done <-chan struct{}, ranks []int, partial []Result, next *atomic.Int64, stopped *atomic.Bool) {
	m := newMiner(o)
	m.done = done
	for {
		if m.checkCancel() {
			stopped.Store(true)
			return
		}
		i := int(next.Add(1)) - 1
		if i >= len(ranks) {
			return
		}
		m.res = &partial[i]
		m.mineTask(t, ranks[i])
		if m.cancelled {
			stopped.Store(true)
			return
		}
		if m.o.CollectStats && 1 > m.res.Stats.MaxDepth {
			m.res.Stats.MaxDepth = 1
		}
		m.arena.reset(0)
	}
}

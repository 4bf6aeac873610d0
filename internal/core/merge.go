package core

import (
	"slices"

	"github.com/recurpat/rp/internal/obs"
)

// Merge machinery for the RP-tree's timestamp lists. Every ts-list in the
// tree is a concatenation of sorted runs (tail-node appends arrive in scan
// order, push-ups append whole sorted runs), so producing a sorted list is a
// k-way merge of runs, not a comparison sort of the concatenation. The old
// implementation re-sorted concatenations with reflection-based sort.Slice
// on every collect; the merge is O(n log k) with no reflection and, through
// mergeScratch, no steady-state allocation. The k-way case cascades tight
// two-way passes (pairing runs round by round through pooled buffers) rather
// than pulling elements through a heap — the per-element constants of a
// branch-predictable copy loop are several times smaller than a heap's
// sift-per-element, which dominated profiles when push-ups fragment a
// ts-list into many runs.

// mergeScratch holds the reusable buffers of one miner: the run-view list,
// the cascade's round scratch, a free list of timestamp buffers, the
// conditional-tree construction scratch and the stack of handed-down
// ts-lists. A zero value is ready to use. Not safe for concurrent use; the
// parallel miner gives each worker its own. conditionalTree never overlaps
// its own recursion (each call completes before mining recurses), so one
// set of construction buffers per miner suffices; only held outlives a
// call, under the mark/reset discipline described at tsStack.
type mergeScratch struct {
	runs  []run     // collected run views, reused per call
	a, b  []run     // cascade round views, reused per call
	spent [][]int64 // intermediate buffers recycled at the end of a merge
	free  [][]int64 // timestamp buffer free list

	// conditionalTree scratch (see rptree.go):
	owner    []int32    // base path per tid of the current call
	base     []basePath // base paths of the current call
	rankBuf  []int32    // shared backing for the paths' ancestor ranks
	sup      []int      // per-rank conditional support
	cur      []int      // per-rank write cursors into held
	ts       []int64    // timestamps of the list being checked
	keep     []condKeep // items surviving the Erec check
	condRank []int32    // tree rank -> conditional rank, or nilNode
	path     []int32    // re-ranked path being inserted
	held     tsStack    // lists handed down to conditional trees

	// lc, when non-nil, is the owning miner's local trace batch: merge
	// times a ts-merge observation per call and conditionalTree counts
	// its Erec prunes into it. nil (the untraced default) keeps the hot
	// path at a single pointer check.
	lc *obs.Local
}

// run is a view of one sorted segment of a node's ts-list.
type run struct{ s []int64 }

// tsStack holds the ts-lists that conditionalTree hands down to the
// conditional tree it builds: the Section 4.2.3 temporary arrays of the
// prefix items that passed the candidate check. The child tree's mineRank
// reads TS^beta for conditional rank cr as list(child.held+cr) instead of
// merging the same tids again with collectTS.
//
// Lists are appended to one backing and addressed by offset, so growing the
// backing never invalidates a span. The stack follows the nodeArena
// discipline: mineRank marks it before building a conditional tree and
// resets it once that tree's recursion returns (or stops early), so a
// child's lists live exactly as long as the child and steady-state mining
// allocates nothing here.
type tsStack struct {
	buf   []int64  // concatenated lists
	spans []tsSpan // buf offsets, one per list, per tree in conditional-rank order
}

// tsSpan locates one list in a tsStack's backing.
type tsSpan struct{ lo, hi int }

// tsMark is a tsStack position for a later reset.
type tsMark struct{ buf, spans int }

func (s *tsStack) mark() tsMark { return tsMark{len(s.buf), len(s.spans)} }

func (s *tsStack) reset(m tsMark) {
	s.buf, s.spans = s.buf[:m.buf], s.spans[:m.spans]
}

// list returns the i-th list. The view is read-only, with its capacity
// capped so that appends cannot write over a neighbour.
func (s *tsStack) list(i int) []int64 {
	sp := s.spans[i]
	return s.buf[sp.lo:sp.hi:sp.hi]
}

// getBuf hands out an empty timestamp buffer, reusing returned capacity.
func (ms *mergeScratch) getBuf() []int64 {
	if n := len(ms.free); n > 0 {
		b := ms.free[n-1]
		ms.free = ms.free[:n-1]
		return b[:0]
	}
	return nil
}

// putBuf returns a buffer to the free list. The caller must not use b (or
// anything aliasing it) afterwards.
func (ms *mergeScratch) putBuf(b []int64) {
	if cap(b) == 0 {
		return
	}
	ms.free = append(ms.free, b[:0])
}

// putBufs returns every buffer of bs to the free list and clears bs.
func (ms *mergeScratch) putBufs(bs [][]int64) {
	for _, b := range bs {
		ms.putBuf(b)
	}
	clear(bs)
}

// union returns the sorted union of sorted lists. A lone non-empty list is
// returned as is (pooled false); otherwise the lists are merged into a
// pooled buffer the caller returns with putBuf.
func (ms *mergeScratch) union(lists [][]int64) (ts []int64, pooled bool) {
	runs, total := ms.runs[:0], 0
	for _, l := range lists {
		if len(l) > 0 {
			runs = append(runs, run{l})
			total += len(l)
		}
	}
	if len(runs) == 1 {
		ms.runs = runs[:0]
		return runs[0].s, false
	}
	ms.runs = runs
	return ms.merge(slices.Grow(ms.getBuf(), total)), true
}

// appendRunViews splits a run-tracked ts-list (ts plus the run boundaries of
// every run except the implicit last) into run views appended to dst.
func appendRunViews(dst []run, ts []int64, runs []int32) []run {
	if len(ts) == 0 {
		return dst
	}
	prev := int32(0)
	for _, end := range runs {
		dst = append(dst, run{ts[prev:end]})
		prev = end
	}
	return append(dst, run{ts[prev:]})
}

// merge merges the sorted runs into dst (appended) and resets ms.runs for
// the next call. The output is the sorted multiset union of the runs —
// byte-identical to sorting the concatenation, since element order among
// equal values is irrelevant for int64 keys. With a trace batch attached,
// each call records one ts-merge observation with its wall time.
func (ms *mergeScratch) merge(dst []int64) []int64 {
	if ms.lc == nil {
		return ms.mergeRuns(dst)
	}
	start := obs.Now()
	dst = ms.mergeRuns(dst)
	ms.lc.Observe(obs.PhaseMerge, obs.Since(start), 1)
	return dst
}

func (ms *mergeScratch) mergeRuns(dst []int64) []int64 {
	runs := ms.runs
	ms.runs = runs[:0]
	switch len(runs) {
	case 0:
		return dst
	case 1:
		return append(dst, runs[0].s...)
	case 2:
		return merge2(dst, runs[0].s, runs[1].s)
	}

	total := 0
	for _, r := range runs {
		total += len(r.s)
	}
	dst = slices.Grow(dst, total)

	// Cascade: merge adjacent pairs round by round until two runs remain,
	// then merge those straight into dst. Rounds alternate between the two
	// view buffers; intermediate element buffers come from (and return to)
	// the free list, so steady state allocates nothing.
	cur, spent, useA := runs, ms.spent[:0], true
	for len(cur) > 2 {
		nxt := ms.b[:0]
		if useA {
			nxt = ms.a[:0]
		}
		for i := 0; i+1 < len(cur); i += 2 {
			buf := slices.Grow(ms.getBuf(), len(cur[i].s)+len(cur[i+1].s))
			buf = merge2(buf, cur[i].s, cur[i+1].s)
			spent = append(spent, buf)
			nxt = append(nxt, run{buf})
		}
		if len(cur)&1 == 1 {
			nxt = append(nxt, cur[len(cur)-1])
		}
		if useA {
			ms.a = nxt
		} else {
			ms.b = nxt
		}
		cur, useA = nxt, !useA
	}
	dst = merge2(dst, cur[0].s, cur[1].s)
	for _, b := range spent {
		ms.free = append(ms.free, b[:0])
	}
	ms.spent = spent[:0]
	return dst
}

// merge2 merges two sorted runs into dst (appended).
func merge2(dst, a, b []int64) []int64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

package core

import "github.com/recurpat/rp/internal/obs"

// mineScratch holds the reusable buffers of one miner: the conditional-tree
// construction scratch and the stack of handed-down ts-lists. A zero value
// is ready to use. Not safe for concurrent use; the parallel miner gives
// each worker its own. conditionalTree never overlaps its own recursion
// (each call completes before mining recurses), so one set of construction
// buffers per miner suffices; only held outlives a call, under the
// mark/reset discipline described at tsStack.
type mineScratch struct {
	owner    []int32    // base path per tid of the current call
	base     []basePath // base paths of the current call
	rankBuf  []int32    // shared backing for the paths' ancestor ranks
	pathOf   []int32    // initial tree: base path per node seq of the rank
	split    []int64    // initial tree: backing of the base paths' lists
	sup      []int      // per-rank conditional support
	cur      []int      // per-rank write cursors into held
	ts       []int64    // timestamps of the list being checked
	keep     []condKeep // items surviving the Erec check
	condRank []int32    // tree rank -> conditional rank, or nilNode
	path     []int32    // re-ranked path being inserted
	held     tsStack    // lists handed down to conditional trees

	// lc, when non-nil, is the owning miner's local trace batch:
	// conditionalTree times the initial tree's posting splits as ts-merge
	// and counts its Erec prunes into it. nil (the untraced default) keeps
	// the hot path at a single pointer check.
	lc *obs.Local
}

// tsStack holds the ts-lists that conditionalTree hands down to the
// conditional tree it builds: the Section 4.2.3 temporary arrays of the
// prefix items that passed the candidate check. The child tree's mineRank
// reads TS^beta for conditional rank cr as list(child.held+cr).
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

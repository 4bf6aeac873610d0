package core

import (
	"slices"

	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/tsdb"
)

// nilNode is the null value of a node index: the slab equivalent of a nil
// pointer for parent, child, sibling and header links.
const nilNode int32 = -1

// rpNode is a node of the RP-tree prefix tree (paper Section 4.2.1), laid
// out for slab allocation: nodes live in a nodeArena's []rpNode slice and
// reference each other by int32 index, and the children of a node form a
// first-child/next-sibling list sorted by tree rank. Unlike an FP-tree node
// it carries no support count; instead, tail nodes (the last node of each
// inserted candidate projection) carry the ts-list of the transactions that
// end there. During bottom-up mining, ts-lists are pushed up to parents
// (Lemma 3), so interior nodes accumulate timestamps too.
//
// A ts-list is stored as transaction indexes (tids): positions in the
// tree's tsOf table of timestamps. Transactions are in timestamp order, so
// sorting tids sorts the timestamps, and a dense tid indexes the per-miner
// owner table that conditionalTree distributes lists with (see there).
//
// A node's ts-list is a concatenation of sorted runs: boundaries of all runs
// but the implicit last one are recorded in runs, and appendRun starts a new
// run only when an append actually breaks the sorted order. Tail appends
// during the database scan arrive in timestamp order, so initial trees hold
// a single run per tail node; push-ups and conditional-tree inserts add runs
// that collectTS later k-way merges instead of re-sorting.
type rpNode struct {
	item        tsdb.ItemID
	rank        int32 // position of item in the owning tree's order
	parent      int32
	firstChild  int32
	nextSibling int32
	link        int32   // next node carrying the same item (header chain)
	tids        []int64 // concatenated sorted runs of transaction indexes
	runs        []int32 // end offsets of all runs except the last
}

// appendRun appends one sorted run to the node's ts-list, recording a run
// boundary only when the append breaks the existing sorted order (ascending
// appends coalesce into the current run).
func (n *rpNode) appendRun(vals []int64) {
	if len(vals) == 0 {
		return
	}
	if len(n.tids) > 0 && vals[0] < n.tids[len(n.tids)-1] {
		n.runs = append(n.runs, int32(len(n.tids)))
	}
	n.tids = append(n.tids, vals...)
}

// appendRunList appends every run of a run-tracked ts-list.
func (n *rpNode) appendRunList(tids []int64, runs []int32) {
	prev := int32(0)
	for _, end := range runs {
		n.appendRun(tids[prev:end])
		prev = end
	}
	n.appendRun(tids[prev:])
}

// nodeArena is a slab of RP-tree nodes. Conditional trees are carved from a
// per-miner arena stack-wise: mark() before building a conditional tree,
// reset(mark) once its recursion returns, so the slab's capacity is reused
// across the entire mining run instead of being reallocated per tree.
type nodeArena struct {
	nodes []rpNode
}

// newNode appends a fresh node and returns its index. Growing the slab may
// move it, so callers must not hold *rpNode pointers across newNode calls.
//
// When the slab re-expands over a region truncated by reset, the slot's old
// tids/runs capacity is salvaged (truncated, not dropped): conditional
// trees are rebuilt in the same slab region over and over during mining,
// and reusing the per-slot list storage removes almost all of their append
// allocations. A tids backing belongs to exactly one slot at a time and
// every insert copies values, so a salvaged buffer can never alias a live
// list.
func (a *nodeArena) newNode(item tsdb.ItemID, rank, parent int32) int32 {
	idx := len(a.nodes)
	if idx < cap(a.nodes) {
		a.nodes = a.nodes[:idx+1]
		n := &a.nodes[idx]
		n.item, n.rank, n.parent = item, rank, parent
		n.firstChild, n.nextSibling, n.link = nilNode, nilNode, nilNode
		n.tids, n.runs = n.tids[:0], n.runs[:0]
		return int32(idx)
	}
	a.nodes = append(a.nodes, rpNode{
		item:        item,
		rank:        rank,
		parent:      parent,
		firstChild:  nilNode,
		nextSibling: nilNode,
		link:        nilNode,
	})
	return int32(idx)
}

// node returns the node at index i. The pointer is invalidated by newNode.
func (a *nodeArena) node(i int32) *rpNode { return &a.nodes[i] }

// mark returns the current slab position for a later reset.
func (a *nodeArena) mark() int { return len(a.nodes) }

// reset truncates the slab back to a mark, reclaiming every node created
// since without freeing the slab's backing array.
func (a *nodeArena) reset(mark int) { a.nodes = a.nodes[:mark] }

// rpTree is a prefix tree plus the per-item header chains. The item order is
// support-descending within the tree's own database (the full TDB for the
// initial tree, the conditional pattern base for conditional trees). All
// nodes, including the root, live in the referenced arena.
type rpTree struct {
	arena      *rpArena
	root       int32
	tsOf       []int64       // timestamp per tid, shared with conditional trees
	order      []tsdb.ItemID // tree item order, most frequent first
	headers    []int32       // first node per rank, nilNode when empty
	rootByRank []int32       // root's child per rank (O(1) insert lookup)
	nodes      int           // nodes created (stats)

	// held is the index in the miner's tsStack of the list handed down for
	// rank 0; rank r's list is held+r. -1 for the initial tree, whose
	// ranks collect their lists from the nodes.
	held int
}

// rpArena aliases nodeArena so rpTree reads naturally; kept distinct from
// the merge scratch, which is per-miner, not per-tree.
type rpArena = nodeArena

// newRPTree prepares an empty tree over the given item order and tid
// table, carving its root from a.
func newRPTree(a *nodeArena, tsOf []int64, order []tsdb.ItemID) *rpTree {
	t := &rpTree{
		arena:      a,
		tsOf:       tsOf,
		order:      order,
		headers:    make([]int32, len(order)),
		rootByRank: make([]int32, len(order)),
		held:       -1,
	}
	for i := range t.headers {
		t.headers[i] = nilNode
		t.rootByRank[i] = nilNode
	}
	t.root = a.newNode(0, -1, nilNode)
	return t
}

// insertRanks adds one candidate projection, given as its strictly
// increasing sequence of tree ranks, recording the run-tracked ts-list
// (tids, runs) at the tail node (Algorithm 3, insert_tree). The values are
// copied, never aliased.
func (t *rpTree) insertRanks(ranks []int32, tids []int64, runs []int32) {
	a := t.arena
	cur := t.root
	for _, rk := range ranks {
		child := nilNode
		if cur == t.root {
			child = t.rootByRank[rk]
		} else {
			for c := a.nodes[cur].firstChild; c != nilNode; c = a.nodes[c].nextSibling {
				if a.nodes[c].rank == rk {
					child = c
					break
				}
				if a.nodes[c].rank > rk {
					break
				}
			}
		}
		if child == nilNode {
			child = a.newNode(t.order[rk], rk, cur)
			t.linkChild(cur, child, rk)
			a.nodes[child].link = t.headers[rk]
			t.headers[rk] = child
			t.nodes++
		}
		cur = child
	}
	if cur != t.root {
		a.nodes[cur].appendRunList(tids, runs)
	}
}

// linkChild splices child into parent's rank-sorted sibling list and, for
// root children, the dense rootByRank index.
func (t *rpTree) linkChild(parent, child int32, rk int32) {
	a := t.arena
	if parent == t.root {
		t.rootByRank[rk] = child
	}
	prev := nilNode
	c := a.nodes[parent].firstChild
	for c != nilNode && a.nodes[c].rank < rk {
		prev = c
		c = a.nodes[c].nextSibling
	}
	a.nodes[child].nextSibling = c
	if prev == nilNode {
		a.nodes[parent].firstChild = child
	} else {
		a.nodes[prev].nextSibling = child
	}
}

// buildRPTree performs the second database scan of RP-growth (Algorithm 2):
// every transaction's candidate item projection is inserted into the prefix
// tree with the transaction's index recorded at the tail node. The tree
// owns a fresh arena; transactions arrive in timestamp order, so every tail
// node's ts-list is a single sorted run.
func buildRPTree(db *tsdb.DB, list *RPList) *rpTree {
	order := make([]tsdb.ItemID, len(list.Candidates))
	for i, e := range list.Candidates {
		order[i] = e.Item
	}
	tsOf := make([]int64, len(db.Trans))
	for tid, tr := range db.Trans {
		tsOf[tid] = tr.TS
	}
	t := newRPTree(&nodeArena{}, tsOf, order)
	var ranks []int32
	var tidOne [1]int64
	for tid, tr := range db.Trans {
		ranks = ranks[:0]
		for _, it := range tr.Items {
			if r := list.Rank[it]; r >= 0 {
				ranks = append(ranks, int32(r))
			}
		}
		if len(ranks) == 0 {
			continue
		}
		slices.Sort(ranks)
		tidOne[0] = int64(tid)
		t.insertRanks(ranks, tidOne[:], nil)
	}
	return t
}

// collectTS merges the ts-lists of every node carrying the item at rank r
// into a sorted tid list appended to dst. During sequential mining this is
// TS^beta for the suffix pattern being processed, because deeper items have
// already pushed their ts-lists up (Lemma 3).
func (t *rpTree) collectTS(ms *mergeScratch, r int, dst []int64) []int64 {
	a := t.arena
	runs := ms.runs[:0]
	for n := t.headers[r]; n != nilNode; n = a.nodes[n].link {
		runs = appendRunViews(runs, a.nodes[n].tids, a.nodes[n].runs)
	}
	ms.runs = runs
	return ms.merge(dst)
}

// collectSubtreeTS merges the ts-lists of the node at index n and all its
// descendants into a sorted list appended to dst. Used by the parallel
// miner, which reads a shared immutable tree and so cannot rely on push-ups
// having happened. Sibling links make the walk deterministic.
func (t *rpTree) collectSubtreeTS(ms *mergeScratch, n int32, dst []int64) []int64 {
	ms.runs = t.appendSubtreeRuns(ms.runs[:0], n)
	return ms.merge(dst)
}

// gatherTS appends the timestamps of the given tids to dst: the form the
// measure layer reads.
func gatherTS(dst, tids, tsOf []int64) []int64 {
	for _, tid := range tids {
		dst = append(dst, tsOf[tid])
	}
	return dst
}

// collectNodeTS is the subtree-mode reading of rank r: one merged subtree
// list per node on r's header chain, in chain order, appended to dst. Each
// list is a pooled buffer the caller returns with putBufs. The lists are
// the base-path lists conditionalTree needs, and their union is TS^beta,
// so every node's subtree is merged exactly once per rank.
func (t *rpTree) collectNodeTS(ms *mergeScratch, r int, dst [][]int64) [][]int64 {
	for n := t.headers[r]; n != nilNode; n = t.arena.nodes[n].link {
		dst = append(dst, t.collectSubtreeTS(ms, n, ms.getBuf()))
	}
	return dst
}

// appendSubtreeRuns gathers the run views of n's subtree in first-child/
// next-sibling order.
func (t *rpTree) appendSubtreeRuns(dst []run, n int32) []run {
	a := t.arena
	dst = appendRunViews(dst, a.nodes[n].tids, a.nodes[n].runs)
	for c := a.nodes[n].firstChild; c != nilNode; c = a.nodes[c].nextSibling {
		dst = t.appendSubtreeRuns(dst, c)
	}
	return dst
}

// pushUp implements Lemma 3 and line 9 of Algorithm 4: every node carrying
// the item at rank r hands its ts-list runs to its parent. Timestamps pushed
// to the root (projections that contained only this item) are discarded; the
// transactions they identify contain no other candidate item. The nodes stay
// linked in the slab — bottom-up mining never revisits rank r, and only the
// parallel miner walks child links, on a tree that is never pushed up.
func (t *rpTree) pushUp(r int) {
	a := t.arena
	for ni := t.headers[r]; ni != nilNode; {
		n := &a.nodes[ni]
		ni = n.link
		if n.parent != t.root {
			a.nodes[n.parent].appendRunList(n.tids, n.runs)
		}
		n.tids, n.runs = n.tids[:0], n.runs[:0] // keep capacity for slot salvage
	}
	t.headers[r] = nilNode
}

// basePath is one prefix path of the suffix item, restricted to candidate
// ancestors: the tree ranks of the ancestors (root-most first, ascending,
// stored as [rankLo:rankHi) of the scratch's shared rankBuf backing) and the
// path's run-tracked tid list.
type basePath struct {
	rankLo, rankHi int32
	tids           []int64
	runs           []int32
}

// condKeep is one prefix item surviving the conditional Erec check, with its
// conditional support, its rank in the enclosing tree and the span of its
// ts-list in the miner's tsStack.
type condKeep struct {
	item  tsdb.ItemID
	sup   int
	trank int32
	list  tsSpan
}

// growN resizes *s to n elements (growing the backing as needed, contents
// unspecified) and returns the resized slice.
func growN[T any](s *[]T, n int) []T {
	v := slices.Grow((*s)[:0], n)[:n]
	*s = v
	return v
}

// conditionalTree builds the conditional RP-tree for the item at rank r
// (Algorithm 4 line 4): the prefix paths of the item's nodes, restricted to
// items whose conditional Erec passes the candidate check (computed from
// the per-item ts-lists — the "temporary array" of Section 4.2.3),
// re-sorted by conditional support. nil is returned when no item survives.
// beta is TS^beta, the sorted union of the item's node lists.
//
// No temporary array is merged. A prefix item whose conditional support
// already bounds Erec below MinRec is rejected outright. The others get
// their lists in one pass over beta: each tid is labelled with the base
// path it belongs to (the miner's owner table, indexed by tid), and the
// pass appends it to the list of every candidate item on that path, so
// each list comes out sorted. The lists of the kept items stay on ms.held
// in conditional-rank order (the returned tree's held field points at the
// first), and the child's mineRank reads them instead of collecting them
// again. The caller resets ms.held once the child's recursion returns.
//
// The new tree is carved from dst (the caller's arena), so the shared
// initial tree is never mutated — the parallel miner's workers all read t
// concurrently while building their own conditional trees.
//
// nodeTS selects how a node's ts-list is read. nil (the sequential miner)
// reads the node's runs directly, since push-ups have accumulated the
// descendants' tids. In subtree mode (the parallel and shard miners) it
// holds collectNodeTS's per-node subtree lists, which the caller owns and
// releases.
func (t *rpTree) conditionalTree(dst *nodeArena, ms *mergeScratch, o Options, r int, beta []int64, nodeTS [][]int64) *rpTree {
	a := t.arena

	// First pass: one base path per node carrying rank r — its candidate
	// ancestors (tree ranks, root-most first, in the shared rankBuf
	// backing) and its ts-list — and the owner label of every tid in beta:
	// its base path, or -1 when its node is a root child and so has no
	// prefix items. All of it lives in pooled per-miner scratch; the only
	// allocations left in this function are the pieces the returned tree
	// retains.
	owner := growN(&ms.owner, len(t.tsOf))
	base, rankBuf := ms.base[:0], ms.rankBuf[:0]
	i := 0
	for ni := t.headers[r]; ni != nilNode; ni, i = a.nodes[ni].link, i+1 {
		n := &a.nodes[ni]
		tids, runs := n.tids, n.runs
		if nodeTS != nil {
			tids, runs = nodeTS[i], nil
		}
		bi := int32(-1)
		if len(tids) > 0 && n.parent != t.root {
			bi = int32(len(base))
			lo := int32(len(rankBuf))
			for p := n.parent; p != t.root; p = a.nodes[p].parent {
				rankBuf = append(rankBuf, a.nodes[p].rank)
			}
			slices.Reverse(rankBuf[lo:]) // root-most first
			base = append(base, basePath{rankLo: lo, rankHi: int32(len(rankBuf)), tids: tids, runs: runs})
		}
		for _, tid := range tids {
			owner[tid] = bi
		}
	}
	ms.base, ms.rankBuf = base, rankBuf
	if len(base) == 0 {
		return nil
	}

	// Conditional support of every prefix rank pr < r. The base paths'
	// ts-lists are disjoint (each tid has one owner), so sup[pr] is exactly
	// the length of pr's list.
	sup := growN(&ms.sup, r)
	clear(sup)
	for bi := range base {
		bp := &base[bi]
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			sup[pr] += len(bp.tids)
		}
	}

	// Support bound: Erec <= floor(sup/MinPS), so a rank whose bound is
	// below MinRec fails the candidate check without its list being built.
	// The others get a slot of exactly sup[pr] on the held stack, in rank
	// order; fill[pr] is the slot's write cursor, or -1.
	held := &ms.held
	from := len(held.buf)
	fill := growN(&ms.cur, r)
	end := from
	for pr := 0; pr < r; pr++ {
		fill[pr] = -1
		if sup[pr] == 0 {
			continue
		}
		if !o.supportMayRecur(sup[pr]) {
			if ms.lc != nil {
				ms.lc.Observe(obs.PhasePrune, 0, 1)
			}
			continue
		}
		fill[pr] = end
		end += sup[pr]
	}
	if end == from {
		return nil
	}
	// Only candidate ranks matter from here on: drop the others from the
	// paths, in place.
	w := int32(0)
	for bi := range base {
		bp := &base[bi]
		lo := w
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			if fill[pr] >= 0 {
				rankBuf[w] = pr
				w++
			}
		}
		bp.rankLo, bp.rankHi = lo, w
	}

	// Distribute beta, in order, into the slots.
	buf := slices.Grow(held.buf, end-from)[:end]
	for _, tid := range beta {
		bi := owner[tid]
		if bi < 0 {
			continue
		}
		bp := &base[bi]
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			buf[fill[pr]] = tid
			fill[pr]++
		}
	}

	// Keep items whose conditional Erec passes the candidate check
	// (Properties 1-2 make this safe), sliding the survivors' lists down
	// over the rejected ones; then order them by conditional support.
	keep := ms.keep[:0]
	next := from
	for pr := 0; pr < r; pr++ {
		if fill[pr] < 0 {
			continue
		}
		list := buf[fill[pr]-sup[pr] : fill[pr]]
		ms.ts = gatherTS(ms.ts[:0], list, t.tsOf)
		if o.candidateErec(ms.ts) < o.MinRec {
			if ms.lc != nil {
				ms.lc.Observe(obs.PhasePrune, 0, 1)
			}
			continue
		}
		copy(buf[next:], list)
		keep = append(keep, condKeep{item: t.order[pr], sup: sup[pr], trank: int32(pr), list: tsSpan{next, next + len(list)}})
		next += len(list)
	}
	held.buf = buf[:next]
	ms.keep = keep
	if len(keep) == 0 {
		return nil
	}
	slices.SortFunc(keep, func(x, y condKeep) int {
		if o.ItemOrder == SupportDescending && x.sup != y.sup {
			return y.sup - x.sup
		}
		if x.item != y.item {
			if x.item < y.item {
				return -1
			}
			return 1
		}
		return 0
	})
	order := make([]tsdb.ItemID, len(keep))
	condRank := growN(&ms.condRank, r) // tree rank -> conditional rank
	for i := range condRank {
		condRank[i] = nilNode
	}
	ct := newRPTree(dst, t.tsOf, order)
	ct.held = len(held.spans)
	for i, k := range keep {
		order[i] = k.item
		condRank[k.trank] = int32(i)
		held.spans = append(held.spans, k.list)
	}

	// Second pass: insert the filtered, re-ranked prefix paths.
	path := ms.path[:0]
	for bi := range base {
		bp := &base[bi]
		path = path[:0]
		for _, tr := range rankBuf[bp.rankLo:bp.rankHi] {
			if cr := condRank[tr]; cr != nilNode {
				path = append(path, cr)
			}
		}
		if len(path) == 0 {
			continue
		}
		slices.Sort(path)
		ct.insertRanks(path, bp.tids, bp.runs)
	}
	ms.path = path
	return ct
}

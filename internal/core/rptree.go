package core

import (
	"slices"
	"time"

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
// it carries no support count, and no ts-list either: the initial tree keeps
// its ts-lists as per-rank postings (see postings), conditional trees keep
// theirs in the arena's side table. The node is pointer-free, so the garbage
// collector never scans the slab and growing it needs no write barriers.
type rpNode struct {
	rank        int32 // position of item in the owning tree's order
	parent      int32
	firstChild  int32
	nextSibling int32
	link        int32 // next node carrying the same item (header chain)
	seq         int32 // initial tree: creation index among its rank's nodes
}

// nodeArena is a slab of RP-tree nodes. Conditional trees are carved from a
// per-miner arena stack-wise: mark() before building a conditional tree,
// reset(mark) once its recursion returns, so the slab's capacity is reused
// across the entire mining run instead of being reallocated per tree.
//
// lists is the side table of conditional-tree ts-lists, indexed like nodes.
// It is extended lazily by appendList and may be shorter than nodes: a node
// past its end has an empty list. The initial tree never extends it.
//
// A ts-list is stored as transaction indexes (tids): positions in the
// tree's tsOf table of timestamps. Transactions are in timestamp order, so
// sorting tids sorts the timestamps, and a dense tid indexes the per-miner
// owner table that conditionalTree distributes lists with (see there). A
// node list is only labelled, counted and copied, so its order is free.
type nodeArena struct {
	nodes []rpNode
	lists [][]int64
}

// newNode appends a fresh node and returns its index. Growing the slab may
// move it, so callers must not hold *rpNode pointers across newNode calls.
func (a *nodeArena) newNode(rank, parent int32) int32 {
	a.nodes = append(a.nodes, rpNode{
		rank:        rank,
		parent:      parent,
		firstChild:  nilNode,
		nextSibling: nilNode,
		link:        nilNode,
	})
	return int32(len(a.nodes) - 1)
}

// list returns node i's ts-list.
func (a *nodeArena) list(i int32) []int64 {
	if int(i) < len(a.lists) {
		return a.lists[i]
	}
	return nil
}

// appendList appends vals to node i's ts-list. When the side table is
// extended over a region truncated by reset, the slot's old capacity is
// salvaged (truncated, not dropped): conditional trees are rebuilt in the
// same slab region over and over during mining, and reusing the per-slot
// storage removes almost all of their append allocations. A backing belongs
// to exactly one slot at a time and every append copies values, so a
// salvaged buffer can never alias a live list.
func (a *nodeArena) appendList(i int32, vals []int64) {
	for int(i) >= len(a.lists) {
		n := len(a.lists)
		if n < cap(a.lists) {
			a.lists = a.lists[:n+1]
			a.lists[n] = a.lists[n][:0]
		} else {
			a.lists = append(a.lists, nil)
		}
	}
	a.lists[i] = append(a.lists[i], vals...)
}

// mark returns the current slab position for a later reset.
func (a *nodeArena) mark() int { return len(a.nodes) }

// reset truncates the slab back to a mark, reclaiming every node created
// since (and their lists) without freeing the backing arrays.
func (a *nodeArena) reset(mark int) {
	a.nodes = a.nodes[:mark]
	if len(a.lists) > mark {
		a.lists = a.lists[:mark]
	}
}

// rpTree is a prefix tree plus the per-item header chains. The item order is
// support-descending within the tree's own database (the full TDB for the
// initial tree, the conditional pattern base for conditional trees). All
// nodes, including the root, live in the referenced arena.
type rpTree struct {
	arena      *nodeArena
	root       int32
	tsOf       []int64       // timestamp per tid, shared with conditional trees
	order      []tsdb.ItemID // tree item order, most frequent first
	headers    []int32       // first node per rank, nilNode when empty
	rootByRank []int32       // root's child per rank (O(1) insert lookup)
	nodes      int           // nodes created (stats)

	// post holds the initial tree's ts-lists; nil for conditional trees.
	post *postings

	// held is the index in the miner's tsStack of the list handed down for
	// rank 0; rank r's list is held+r. -1 for the initial tree, whose
	// ranks read their lists from post.
	held int
}

// postings are the initial tree's ts-lists, one posting list per rank:
// every transaction's tid is recorded under each rank of its candidate
// projection, with the node its path passes through at that rank. Rank r
// occupies [off[r], off[r+1]) of both columns.
//
// Transactions are scanned in tid order, so each list is sorted: rank r's
// tids are TS^beta for the top-level item order[r], with no merge. A
// transaction's items are distinct, so list r has exactly the item's
// RP-list support entries, and one backing sized from the RP-list holds
// them all. The node column is the node's seq, which indexes the per-rank
// scratch of conditionalTree's split without a slab-sized table.
type postings struct {
	tids []int64
	seqs []int32
	off  []int
}

// rank returns rank r's posting list.
func (p *postings) rank(r int) (tids []int64, seqs []int32) {
	lo, hi := p.off[r], p.off[r+1]
	return p.tids[lo:hi:hi], p.seqs[lo:hi:hi]
}

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
	t.root = a.newNode(-1, nilNode)
	return t
}

// child returns cur's child of rank rk, creating it (and linking it into
// rk's header chain) when absent; created reports which.
func (t *rpTree) child(cur, rk int32) (c int32, created bool) {
	a := t.arena
	c = nilNode
	if cur == t.root {
		c = t.rootByRank[rk]
	} else {
		for s := a.nodes[cur].firstChild; s != nilNode; s = a.nodes[s].nextSibling {
			if a.nodes[s].rank == rk {
				c = s
				break
			}
			if a.nodes[s].rank > rk {
				break
			}
		}
	}
	if c != nilNode {
		return c, false
	}
	c = a.newNode(rk, cur)
	t.linkChild(cur, c, rk)
	a.nodes[c].link = t.headers[rk]
	t.headers[rk] = c
	t.nodes++
	return c, true
}

// insertRanks adds one candidate projection, given as its strictly
// increasing sequence of tree ranks, appending the tid list to the tail
// node's ts-list (Algorithm 3, insert_tree). The values are copied, never
// aliased.
func (t *rpTree) insertRanks(ranks []int32, tids []int64) {
	cur := t.root
	for _, rk := range ranks {
		cur, _ = t.child(cur, rk)
	}
	if cur != t.root {
		t.arena.appendList(cur, tids)
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
// tree, and its tid is posted under every rank on the path. The tree owns a
// fresh arena, sized once: every posting creates at most one node, so the
// posting count bounds the slab and it never regrows. The initial tree is
// read-only once built; every miner reads it concurrently.
func buildRPTree(db *tsdb.DB, list *RPList) *rpTree {
	order := make([]tsdb.ItemID, len(list.Candidates))
	post := &postings{off: make([]int, len(list.Candidates)+1)}
	for i, e := range list.Candidates {
		order[i] = e.Item
		post.off[i+1] = post.off[i] + e.Support
	}
	total := post.off[len(order)]
	post.tids = make([]int64, total)
	post.seqs = make([]int32, total)
	tsOf := make([]int64, len(db.Trans))
	for tid, tr := range db.Trans {
		tsOf[tid] = tr.TS
	}
	t := newRPTree(&nodeArena{nodes: make([]rpNode, 0, total+1)}, tsOf, order)
	t.post = post
	fill := slices.Clone(post.off[:len(order)]) // per-rank write cursor
	seqs := make([]int32, len(order))           // per-rank nodes created
	var ranks []int32
	for tid, tr := range db.Trans {
		ranks = ranks[:0]
		for _, it := range tr.Items {
			if r := list.Rank[it]; r >= 0 {
				ranks = append(ranks, int32(r))
			}
		}
		slices.Sort(ranks)
		cur := t.root
		for _, rk := range ranks {
			c, created := t.child(cur, rk)
			if created {
				t.arena.nodes[c].seq = seqs[rk]
				seqs[rk]++
			}
			p := fill[rk]
			post.tids[p], post.seqs[p] = int64(tid), t.arena.nodes[c].seq
			fill[rk]++
			cur = c
		}
	}
	return t
}

// gatherTS appends the timestamps of the given tids to dst: the form the
// measure layer reads.
func gatherTS(dst, tids, tsOf []int64) []int64 {
	for _, tid := range tids {
		dst = append(dst, tsOf[tid])
	}
	return dst
}

// pushUp implements Lemma 3 and line 9 of Algorithm 4 for a conditional
// tree: every node carrying the item at rank r hands its ts-list to its
// parent. Tids pushed to the root (projections that contained only this
// item) are discarded; the transactions they identify contain no other
// candidate item. Bottom-up mining never revisits rank r. The initial tree
// is never pushed up: its ranks read their lists from the postings.
func (t *rpTree) pushUp(r int) {
	a := t.arena
	for ni := t.headers[r]; ni != nilNode; ni = a.nodes[ni].link {
		if p := a.nodes[ni].parent; p != t.root {
			a.appendList(p, a.list(ni))
		}
	}
	t.headers[r] = nilNode
}

// basePath is one prefix path of the suffix item, restricted to candidate
// ancestors: the tree ranks of the ancestors (root-most first, ascending,
// stored as [rankLo:rankHi) of the scratch's shared rankBuf backing), the
// length of the path's ts-list, and the list itself once known.
type basePath struct {
	rankLo, rankHi int32
	n              int
	tids           []int64
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

// appendPath appends the ranks of node n's ancestors, root-most first, to
// rankBuf and returns it with the bounds of the appended run.
func (t *rpTree) appendPath(rankBuf []int32, n int32) ([]int32, int32, int32) {
	a := t.arena
	lo := int32(len(rankBuf))
	for p := a.nodes[n].parent; p != t.root; p = a.nodes[p].parent {
		rankBuf = append(rankBuf, a.nodes[p].rank)
	}
	slices.Reverse(rankBuf[lo:])
	return rankBuf, lo, int32(len(rankBuf))
}

// conditionalTree builds the conditional RP-tree for the item at rank r
// (Algorithm 4 line 4): the prefix paths of the item's nodes, restricted to
// items whose conditional Erec passes the candidate check (computed from
// the per-item ts-lists — the "temporary array" of Section 4.2.3),
// re-sorted by conditional support. nil is returned when no item survives.
// beta is TS^beta, the sorted tids of the transactions containing the
// suffix pattern.
//
// No list is merged or sorted. A prefix item whose conditional support
// already bounds Erec below MinRec is rejected outright. The others get
// their lists in one pass over beta: each tid is labelled with the base
// path it belongs to (the miner's owner table, indexed by tid), and the
// pass appends it to the list of every candidate item on that path, so
// each list comes out sorted. The lists of the kept items stay on sc.held
// in conditional-rank order (the returned tree's held field points at the
// first), and the child's mineRank reads them instead of collecting them
// again. The caller resets sc.held once the child's recursion returns.
//
// The new tree is carved from dst (the caller's arena), so t is never
// mutated: every miner reads the initial tree concurrently.
func (t *rpTree) conditionalTree(dst *nodeArena, sc *mineScratch, o Options, r int, beta []int64) *rpTree {
	// First pass: one base path per node carrying rank r, except a root
	// child, which has no prefix items — its candidate ancestors (tree
	// ranks, root-most first, in the shared rankBuf backing) and its
	// ts-list length — and the owner label of every tid in beta: its base
	// path, or -1. All of it lives in pooled per-miner scratch; the only
	// allocations left in this function are the pieces the returned tree
	// retains.
	owner := growN(&sc.owner, len(t.tsOf))
	if t.post != nil {
		t.basePostings(sc, r, owner)
	} else {
		t.baseLists(sc, r, owner)
	}
	base, rankBuf := sc.base, sc.rankBuf
	if len(base) == 0 {
		return nil
	}

	// Conditional support of every prefix rank pr < r. The base paths'
	// ts-lists are disjoint (each tid has one owner), so sup[pr] is exactly
	// the length of pr's list.
	sup := growN(&sc.sup, r)
	clear(sup)
	for bi := range base {
		bp := &base[bi]
		for _, pr := range rankBuf[bp.rankLo:bp.rankHi] {
			sup[pr] += bp.n
		}
	}

	// Support bound: Erec <= floor(sup/MinPS), so a rank whose bound is
	// below MinRec fails the candidate check without its list being built.
	// The others get a slot of exactly sup[pr] on the held stack, in rank
	// order; fill[pr] is the slot's write cursor, or -1.
	held := &sc.held
	from := len(held.buf)
	fill := growN(&sc.cur, r)
	end := from
	for pr := 0; pr < r; pr++ {
		fill[pr] = -1
		if sup[pr] == 0 {
			continue
		}
		if !o.supportMayRecur(sup[pr]) {
			if sc.lc != nil {
				sc.lc.Observe(obs.PhasePrune, 0, 1)
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
	keep := sc.keep[:0]
	next := from
	for pr := 0; pr < r; pr++ {
		if fill[pr] < 0 {
			continue
		}
		list := buf[fill[pr]-sup[pr] : fill[pr]]
		sc.ts = gatherTS(sc.ts[:0], list, t.tsOf)
		if o.candidateErec(sc.ts) < o.MinRec {
			if sc.lc != nil {
				sc.lc.Observe(obs.PhasePrune, 0, 1)
			}
			continue
		}
		copy(buf[next:], list)
		keep = append(keep, condKeep{item: t.order[pr], sup: sup[pr], trank: int32(pr), list: tsSpan{next, next + len(list)}})
		next += len(list)
	}
	held.buf = buf[:next]
	sc.keep = keep
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
	condRank := growN(&sc.condRank, r) // tree rank -> conditional rank
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

	// Second pass: insert the filtered, re-ranked prefix paths with their
	// ts-lists, which the initial tree splits out of its postings only now
	// that a conditional tree is certain.
	if t.post != nil {
		t.splitPostings(sc, r, owner)
	}
	path := sc.path[:0]
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
		ct.insertRanks(path, bp.tids)
	}
	sc.path = path
	return ct
}

// baseLists is conditionalTree's first pass over a conditional tree, whose
// node lists push-ups have filled with their subtrees' tids (Lemma 3).
func (t *rpTree) baseLists(sc *mineScratch, r int, owner []int32) {
	a := t.arena
	base, rankBuf := sc.base[:0], sc.rankBuf[:0]
	for ni := t.headers[r]; ni != nilNode; ni = a.nodes[ni].link {
		tids := a.list(ni)
		bi := int32(-1)
		if len(tids) > 0 && a.nodes[ni].parent != t.root {
			bi = int32(len(base))
			var lo, hi int32
			rankBuf, lo, hi = t.appendPath(rankBuf, ni)
			base = append(base, basePath{rankLo: lo, rankHi: hi, n: len(tids), tids: tids})
		}
		for _, tid := range tids {
			owner[tid] = bi
		}
	}
	sc.base, sc.rankBuf = base, rankBuf
}

// basePostings is conditionalTree's first pass over the initial tree: one
// base path per node of rank r, and one counting pass over r's postings
// that labels each tid's owner and sizes each path's list. No node holds a
// list; splitPostings fills them later if a conditional tree is built.
// The split is the initial tree's share of the Section 4.2.3 temporary
// arrays, so it is what a trace's ts-merge phase times and counts.
func (t *rpTree) basePostings(sc *mineScratch, r int, owner []int32) {
	var start time.Time
	if sc.lc != nil {
		start = obs.Now()
	}
	a := t.arena
	base, rankBuf := sc.base[:0], sc.rankBuf[:0]
	// The chain starts at the rank's last-created node, whose seq is the
	// highest.
	head := t.headers[r]
	pathOf := growN(&sc.pathOf, int(a.nodes[head].seq)+1)
	for ni := head; ni != nilNode; ni = a.nodes[ni].link {
		s := a.nodes[ni].seq
		if a.nodes[ni].parent == t.root {
			pathOf[s] = -1
			continue
		}
		pathOf[s] = int32(len(base))
		var lo, hi int32
		rankBuf, lo, hi = t.appendPath(rankBuf, ni)
		base = append(base, basePath{rankLo: lo, rankHi: hi})
	}
	tids, seqs := t.post.rank(r)
	for k, s := range seqs {
		bi := pathOf[s]
		owner[tids[k]] = bi
		if bi >= 0 {
			base[bi].n++
		}
	}
	sc.base, sc.rankBuf = base, rankBuf
	if sc.lc != nil {
		sc.lc.Observe(obs.PhaseMerge, obs.Since(start), 1)
	}
}

// splitPostings hands every base path of rank r its ts-list: one pass over
// r's postings by owner, into one buffer carved by the counts of
// basePostings.
func (t *rpTree) splitPostings(sc *mineScratch, r int, owner []int32) {
	var start time.Time
	if sc.lc != nil {
		start = obs.Now()
	}
	base := sc.base
	total := 0
	for bi := range base {
		total += base[bi].n
	}
	buf := growN(&sc.split, total)
	off := 0
	for bi := range base {
		bp := &base[bi]
		bp.tids = buf[off : off : off+bp.n]
		off += bp.n
	}
	tids, _ := t.post.rank(r)
	for _, tid := range tids {
		if bi := owner[tid]; bi >= 0 {
			base[bi].tids = append(base[bi].tids, tid)
		}
	}
	if sc.lc != nil {
		sc.lc.Observe(obs.PhaseMerge, obs.Since(start), 0)
	}
}

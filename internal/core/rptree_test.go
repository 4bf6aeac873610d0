package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/recurpat/rp/internal/tsdb"
)

// buildPaperTree constructs the RP-tree of the running example (paper
// Figure 5(b)).
func buildPaperTree(t *testing.T) (*tsdb.DB, *RPList, *rpTree) {
	t.Helper()
	db := paperDB(t)
	list := BuildRPList(db, paperOptions())
	tree := buildRPTree(db, list)
	return db, list, tree
}

func TestRPTreeStructurePaperExample(t *testing.T) {
	db, list, tree := buildPaperTree(t)
	// Six candidate items -> six header chains.
	if len(tree.headers) != 6 {
		t.Fatalf("headers = %d, want 6", len(tree.headers))
	}
	// Every item's posting list covers exactly the transactions containing
	// that item.
	for rank, item := range tree.order {
		tids, _ := tree.post.rank(rank)
		ts := gatherTS(nil, tids, tree.tsOf)
		want := db.TSList([]tsdb.ItemID{item})
		if !reflect.DeepEqual(ts, want) {
			t.Errorf("item %s postings ts = %v, want %v", db.Dict.Name(item), ts, want)
		}
	}
	// Figure 5(b): the root's children are exactly the distinct leading
	// items of the candidate projections... verify against the actual
	// projections instead of hard-coding.
	roots := map[tsdb.ItemID]bool{}
	var proj []tsdb.ItemID
	for _, tr := range db.Trans {
		proj = list.Project(proj[:0], tr.Items)
		if len(proj) > 0 {
			roots[proj[0]] = true
		}
	}
	got := 0
	for c := tree.arena.nodes[tree.root].firstChild; c != nilNode; c = tree.arena.nodes[c].nextSibling {
		got++
	}
	if got != len(roots) {
		t.Errorf("root children = %d, want %d", got, len(roots))
	}
	// The dense root index must agree with the sibling list.
	for rk, ci := range tree.rootByRank {
		if ci == nilNode {
			continue
		}
		if tree.arena.nodes[ci].rank != int32(rk) || tree.arena.nodes[ci].parent != tree.root {
			t.Errorf("rootByRank[%d] inconsistent", rk)
		}
	}
}

// chainBySeq maps each seq of rank r's nodes to the node's index.
func chainBySeq(tree *rpTree, r int) map[int32]int32 {
	bySeq := map[int32]int32{}
	for n := tree.headers[r]; n != nilNode; n = tree.arena.nodes[n].link {
		bySeq[tree.arena.nodes[n].seq] = n
	}
	return bySeq
}

func TestRPTreeNoSupportCountsOnlyTailTS(t *testing.T) {
	// Paper Section 4.2.1: nodes carry no support counts, and a
	// transaction's timestamp is recorded at the tail node of its
	// projection. Here nodes carry no ts-lists at all: each transaction is
	// posted once under every rank of its candidate projection, list r
	// holds exactly the item's support, the posted nodes of one
	// transaction are its path from the root, and the paper's tail
	// ts-lists are the postings at each path's last node — one per
	// transaction.
	rng := rand.New(rand.NewPCG(8, 2))
	dbs := []*tsdb.DB{paperDB(t)}
	for i := 0; i < 20; i++ {
		dbs = append(dbs, randomDB(rng, 3+rng.IntN(8), 10+rng.IntN(80), 0.2+rng.Float64()*0.6))
	}
	for di, db := range dbs {
		o := paperOptions()
		o.MinPS, o.MinRec = 1, 1
		list := BuildRPList(db, o)
		tree := buildRPTree(db, list)
		if len(tree.arena.lists) != 0 {
			t.Fatalf("db %d: initial tree nodes hold %d ts-lists", di, len(tree.arena.lists))
		}
		if len(tree.arena.nodes) != tree.nodes+1 || cap(tree.arena.nodes) != len(tree.post.tids)+1 {
			t.Fatalf("db %d: slab len %d cap %d, want %d nodes + root in a slab of %d postings + 1",
				di, len(tree.arena.nodes), cap(tree.arena.nodes), tree.nodes, len(tree.post.tids))
		}
		// node[tid][r] is the node transaction tid is posted under at rank r.
		node := make([]map[int]int32, db.Len())
		for r, e := range list.Candidates {
			tids, seqs := tree.post.rank(r)
			if len(tids) != e.Support {
				t.Fatalf("db %d rank %d: %d postings, support %d", di, r, len(tids), e.Support)
			}
			bySeq := chainBySeq(tree, r)
			for k, tid := range tids {
				n, ok := bySeq[seqs[k]]
				if !ok {
					t.Fatalf("db %d rank %d: posting seq %d names no node of the rank", di, r, seqs[k])
				}
				if node[tid] == nil {
					node[tid] = map[int]int32{}
				}
				node[tid][r] = n
			}
		}
		var proj []tsdb.ItemID
		tails := map[int32]int{} // tail node -> transactions ending there
		projected := 0
		for tid, tr := range db.Trans {
			proj = list.Project(proj[:0], tr.Items)
			if len(proj) > 0 {
				tails[node[tid][list.Rank[proj[len(proj)-1]]]]++
				projected++
			}
			if len(node[tid]) != len(proj) {
				t.Fatalf("db %d tid %d: posted under %d ranks, projection has %d items", di, tid, len(node[tid]), len(proj))
			}
			parent := tree.root
			for _, it := range proj {
				n := node[tid][list.Rank[it]]
				if tree.arena.nodes[n].parent != parent {
					t.Fatalf("db %d tid %d: posted nodes do not form the projection's path", di, tid)
				}
				parent = n
			}
		}
		total := 0
		for _, k := range tails {
			total += k
		}
		if total != projected {
			t.Fatalf("db %d: tails hold %d transactions, want %d (one per projected transaction)", di, total, projected)
		}
	}
}

func TestCollectTSMatchesScan(t *testing.T) {
	// Collecting TS^beta for a top-level item is reading its posting list:
	// sorted and equal to the item's scan ts-list for every rank, with no
	// push-up or merge.
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 3+rng.IntN(8), 10+rng.IntN(80), 0.2+rng.Float64()*0.6)
		for _, o := range handDownOptions() {
			tree := buildRPTree(db, BuildRPList(db, o))
			for r, item := range tree.order {
				tids, _ := tree.post.rank(r)
				if want := scanTids(db, []tsdb.ItemID{item}); !slices.Equal(tids, want) {
					t.Fatalf("trial %d rank %d: postings %v, scan %v", trial, r, tids, want)
				}
			}
		}
	}
}

func TestConditionalTreeSubtreeModeEquivalent(t *testing.T) {
	// The per-node base-path lists the posting split gives every node of
	// rank r are its subtree's transactions: those whose projection,
	// restricted to ranks up to r, is exactly the node's path. The lists
	// are disjoint, and with the root child's postings they make up
	// post[r].
	rng := rand.New(rand.NewPCG(6, 1))
	splits := 0
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 3+rng.IntN(8), 10+rng.IntN(80), 0.2+rng.Float64()*0.6)
		list := BuildRPList(db, Options{Per: 3, MinPS: 1, MinRec: 1})
		tree := buildRPTree(db, list)
		built := tree.nodes
		var sc mineScratch
		for r := range tree.order {
			owner := growN(&sc.owner, len(tree.tsOf))
			tree.basePostings(&sc, r, owner)
			tree.splitPostings(&sc, r, owner)
			// subtree[n] are the transactions through node n, from the
			// database alone.
			subtree := map[int32][]int64{}
			var proj []tsdb.ItemID
			for tid, tr := range db.Trans {
				proj = list.Project(proj[:0], tr.Items)
				n := tree.root
				for _, it := range proj {
					if list.Rank[it] > r {
						break
					}
					n, _ = tree.child(n, int32(list.Rank[it]))
				}
				if n != tree.root && tree.arena.nodes[n].rank == int32(r) {
					subtree[n] = append(subtree[n], int64(tid))
				}
			}
			tids, _ := tree.post.rank(r)
			var union []int64
			if rc := tree.rootByRank[r]; rc != nilNode {
				union = append(union, subtree[rc]...)
			}
			bi := 0
			for n := tree.headers[r]; n != nilNode; n = tree.arena.nodes[n].link {
				if n == tree.rootByRank[r] {
					continue
				}
				got := sc.base[bi].tids
				if !slices.Equal(got, subtree[n]) || len(got) != sc.base[bi].n {
					t.Fatalf("trial %d rank %d: path %d list %v (counted %d), its subtree %v", trial, r, bi, got, sc.base[bi].n, subtree[n])
				}
				union = append(union, got...)
				bi++
				splits++
			}
			slices.Sort(union)
			if bi != len(sc.base) || !slices.Equal(union, tids) {
				t.Fatalf("trial %d rank %d: split lists and root child make %v, want %v", trial, r, union, tids)
			}
		}
		if tree.nodes != built {
			t.Fatalf("trial %d: the reference walk left a path of the database out of the tree", trial)
		}
	}
	if splits == 0 {
		t.Fatal("no base path was split")
	}
}

func TestPushUpPreservesParentTS(t *testing.T) {
	// Lemma 3 on conditional trees: after pushing every deeper rank up,
	// the node lists of rank c hold exactly TS^beta for c's item, the list
	// handed down for it.
	rng := rand.New(rand.NewPCG(9, 5))
	checked := 0
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 4+rng.IntN(6), 30+rng.IntN(60), 0.3+rng.Float64()*0.4)
		o := Options{Per: 3, MinPS: 2, MinRec: 1}
		tree := buildRPTree(db, BuildRPList(db, o))
		var arena nodeArena
		var sc mineScratch
		for r := len(tree.order) - 1; r >= 0; r-- {
			ct := condTree(tree, &arena, &sc, o, r)
			for c := ctLen(ct) - 1; c >= 0; c-- {
				var got []int64
				for n := ct.headers[c]; n != nilNode; n = arena.nodes[n].link {
					got = append(got, arena.list(n)...)
				}
				slices.Sort(got)
				if want := sc.held.list(ct.held + c); !slices.Equal(got, want) {
					t.Fatalf("trial %d rank %d/%d: node lists %v, handed down %v", trial, r, c, got, want)
				}
				checked++
				ct.pushUp(c)
			}
			arena.reset(0)
			sc.held.reset(tsMark{})
		}
	}
	if checked == 0 {
		t.Fatal("no conditional tree rank checked")
	}
}

// ctLen is the number of ranks of a conditional tree, 0 for none.
func ctLen(ct *rpTree) int {
	if ct == nil {
		return 0
	}
	return len(ct.order)
}

func TestConditionalTreePaperExample(t *testing.T) {
	// Paper Figure 6: the conditional tree for suffix item 'f' contains
	// only item 'e' (the other prefix items fail the Erec check), and the
	// ts-list of 'e' in it is TS^ef = {3,5,6,10,11,12}.
	db, _, tree := buildPaperTree(t)
	var arena nodeArena
	var sc mineScratch
	fID, _ := db.Dict.Lookup("f")
	fRank := -1
	for r, it := range tree.order {
		if it == fID {
			fRank = r
		}
	}
	if fRank != len(tree.order)-1 {
		t.Fatalf("f should be the bottom item, got rank %d", fRank)
	}
	cond := condTree(tree, &arena, &sc, paperOptions(), fRank)
	if cond == nil {
		t.Fatal("conditional tree for f is empty")
	}
	eID, _ := db.Dict.Lookup("e")
	if len(cond.order) != 1 || cond.order[0] != eID {
		names := make([]string, len(cond.order))
		for i, it := range cond.order {
			names[i] = db.Dict.Name(it)
		}
		t.Fatalf("CT_f items = %v, want [e]", names)
	}
	ts := gatherTS(nil, sc.held.list(cond.held), cond.tsOf)
	want := []int64{3, 5, 6, 10, 11, 12}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("TS^ef = %v, want %v", ts, want)
	}
}

func TestMineStatsCounters(t *testing.T) {
	db := paperDB(t)
	o := paperOptions()
	o.CollectStats = true
	res, err := Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CandidateItems != 6 {
		t.Errorf("CandidateItems = %d, want 6", res.Stats.CandidateItems)
	}
	if res.Stats.PatternsExamined < len(res.Patterns) {
		t.Errorf("Examined %d < %d patterns found", res.Stats.PatternsExamined, len(res.Patterns))
	}
	if res.Stats.TreeNodes == 0 || res.Stats.MaxDepth == 0 {
		t.Errorf("tree stats empty: %+v", res.Stats)
	}

	// Disabling pruning must not change output but must examine at least
	// as many patterns.
	o2 := o
	o2.DisableErecPruning = true
	res2, err := Mine(db, o2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(res2) {
		t.Error("pruning changed the result")
	}
	if res2.Stats.PatternsExamined < res.Stats.PatternsExamined {
		t.Errorf("pruning off examined fewer patterns: %d vs %d",
			res2.Stats.PatternsExamined, res.Stats.PatternsExamined)
	}
}

func TestEmptyAndDegenerateDatabases(t *testing.T) {
	empty := &tsdb.DB{Dict: tsdb.NewDictionary()}
	res, err := Mine(empty, paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("empty DB produced patterns: %v", res.Patterns)
	}
	// Single transaction: a run of one timestamp; recurring only if
	// minPS=1 and minRec=1.
	b := tsdb.NewBuilder()
	b.Add("x", 5)
	db := b.Build()
	res, err = Mine(db, Options{Per: 1, MinPS: 1, MinRec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 || res.Patterns[0].Support != 1 {
		t.Errorf("singleton DB: %v", res.Patterns)
	}
	res, err = Mine(db, Options{Per: 1, MinPS: 2, MinRec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("minPS=2 on singleton must find nothing: %v", res.Patterns)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{},
		{Per: 1},
		{Per: 1, MinPS: 1},
		{Per: -1, MinPS: 1, MinRec: 1},
		{Per: 1, MinPS: -1, MinRec: 1},
		{Per: 1, MinPS: 1, MinRec: -1},
		{Per: 1, MinPS: 1, MinRec: 1, MaxLen: -1},
		{Per: 1, MinPS: 1, MinRec: 1, Parallelism: -2},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", o)
		}
		if _, err := Mine(&tsdb.DB{Dict: tsdb.NewDictionary()}, o); err == nil {
			t.Errorf("Mine with %+v should fail", o)
		}
	}
	if err := (Options{Per: 1, MinPS: 1, MinRec: 1}).Validate(); err != nil {
		t.Errorf("minimal valid options rejected: %v", err)
	}
}

func TestMinPSFromPercent(t *testing.T) {
	db := paperDB(t) // 12 transactions
	cases := []struct {
		pct  float64
		want int
	}{
		{0, 1}, {1, 1}, {25, 3}, {50, 6}, {100, 12}, {200, 24},
	}
	for _, c := range cases {
		if got := MinPSFromPercent(db, c.pct); got != c.want {
			t.Errorf("MinPSFromPercent(%v%%) = %d, want %d", c.pct, got, c.want)
		}
	}
}

func TestLemma2TreeSizeBound(t *testing.T) {
	// Paper Lemma 2: the RP-tree size (nodes, without the root) is bounded
	// by the total size of the candidate item projections.
	db := paperDB(t)
	list := BuildRPList(db, paperOptions())
	tree := buildRPTree(db, list)
	bound := 0
	var proj []tsdb.ItemID
	for _, tr := range db.Trans {
		proj = list.Project(proj[:0], tr.Items)
		bound += len(proj)
	}
	if tree.nodes > bound {
		t.Errorf("tree has %d nodes, Lemma 2 bound is %d", tree.nodes, bound)
	}
	// Prefix sharing should make it strictly smaller here.
	if tree.nodes >= bound {
		t.Errorf("no prefix sharing: %d nodes vs bound %d", tree.nodes, bound)
	}
	// The slab holds exactly the created nodes plus the root.
	if len(tree.arena.nodes) != tree.nodes+1 {
		t.Errorf("slab has %d entries, want %d nodes + 1 root", len(tree.arena.nodes), tree.nodes)
	}
}

func TestMinerArenaReuse(t *testing.T) {
	// Two consecutive mines on the same miner state (as the worker pool
	// does rank after rank) must produce identical results: the arena reset
	// and scratch recycling may not leak state between runs.
	rng := rand.New(rand.NewPCG(21, 4))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 6, 40, 0.35)
		o := Options{Per: 3, MinPS: 2, MinRec: 2}
		list := BuildRPList(db, o)
		if len(list.Candidates) == 0 {
			continue
		}

		fresh, err := Mine(db, o)
		if err != nil {
			t.Fatal(err)
		}

		var m miner
		m.o = o
		var results []*Result
		for round := 0; round < 2; round++ {
			tree := buildRPTree(db, list)
			res := &Result{}
			m.res = res
			m.mineTree(tree, nil, 1)
			res.Canonicalize()
			results = append(results, res)
			m.arena.reset(0)
		}
		for i, res := range results {
			if renderResult(res) != renderResult(fresh) {
				t.Fatalf("trial %d round %d: reused miner diverged\nreused:\n%s\nfresh:\n%s",
					trial, i, renderResult(res), renderResult(fresh))
			}
		}
	}
}

package core

import (
	"context"
	"fmt"

	"github.com/recurpat/rp/internal/tsdb"
)

// Shard-restricted mining: the entry point a scatter-gather coordinator
// (internal/shard) fans one mine out over. RP-growth decomposes exactly at
// the top level — each suffix item's conditional subtree is mined
// independently of every other (the property the in-process worker pool
// already exploits) — so a shard owns the suffix items whose RP-list rank
// falls in its residue class, mines only those, and the union of the
// shards' pattern sets over any partition of the ranks is precisely the
// full mine's pattern set. Canonicalize is a total order on unique item
// sets, so the merged output is byte-identical regardless of shard count.

// ShardSpec restricts a mine to one shard of the top-level suffix items:
// the ranks r of the RP-list's support-descending candidate order with
// r mod Count == Index. The rank order is a pure function of the database
// content and Options (BuildRPList is deterministic), so every shard of a
// scatter derives the same assignment independently — no task list needs
// to ride on the wire, only (Index, Count).
type ShardSpec struct {
	// Index identifies this shard, in [0, Count).
	Index int
	// Count is the total number of shards the mine is split into.
	Count int
}

// Validate reports the first violated constraint.
func (s ShardSpec) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("core: shard count must be positive, got %d", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("core: shard index must be in [0,%d), got %d", s.Count, s.Index)
	}
	return nil
}

// Owns reports whether the shard mines the suffix item at the given
// RP-list rank.
func (s ShardSpec) Owns(rank int) bool { return rank%s.Count == s.Index }

// MineShardContext mines the slice of db's recurring patterns owned by
// spec: exactly the patterns whose deepest-ranked item falls in the shard's
// residue class of the RP-list rank order. Every shard runs the same two
// database scans (RP-list, initial RP-tree) and then mines only its owned
// subtrees, each as the same top-level task every miner runs on the
// read-only initial tree, so shards share no state
// and may run in different processes. The result is canonically ordered;
// concatenating the Patterns of all Count shards (in any order) and
// canonicalizing again reproduces MineContext's output byte for byte.
//
// A spec of {0, 1} owns every rank and is equivalent to MineContext.
// Cancellation behaves as in MineContext: task-granular, *CancelError.
func MineShardContext(ctx context.Context, db *tsdb.DB, o Options, spec ShardSpec) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &CancelError{Err: err}
	}
	defer o.Trace.StartTotal().End()
	// Every shard builds the full initial tree, so summing shard stats
	// overcounts TreeNodes by (Count-1) tree sizes; the reducer documents
	// this (conditional-tree nodes, the dominant term, are counted exactly
	// once since each shard only grows its own).
	res := &Result{}
	tree := buildTree(ctx, db, o, res)
	if tree == nil {
		return res, nil
	}
	ranks := make([]int, 0, (len(tree.order)+spec.Count-1)/spec.Count)
	for r := range tree.order {
		if spec.Owns(r) {
			ranks = append(ranks, r)
		}
	}
	return finish(ctx, o, res, mineRanks(ctx, tree, o, res, ranks))
}

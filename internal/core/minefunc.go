package core

import (
	"context"

	"github.com/recurpat/rp/internal/tsdb"
)

// MineFunc runs RP-growth and invokes fn for every recurring pattern as it
// is discovered, instead of accumulating a result slice — memory stays
// bounded by the tree, not by the (possibly huge) pattern set. Patterns
// arrive in discovery order (suffix-item order, not the canonical order of
// Mine); returning false from fn stops mining early.
//
// MineFunc is always sequential; Options.Parallelism is ignored so the
// callback never races with itself. Long-running callers that need
// cancellation should use MineFuncContext.
func MineFunc(db *tsdb.DB, o Options, fn func(Pattern) bool) error {
	//rpvet:allow ctxflow — MineFunc is the documented non-cancellable compat wrapper; the root it mints is the API contract
	return MineFuncContext(context.Background(), db, o, fn)
}

// MineFuncContext is MineFunc with cancellation: when ctx is cancelled the
// miner stops at the next subtree-task boundary and a *CancelError wrapping
// ctx.Err() is returned. Patterns already delivered to fn stay delivered;
// an early stop requested by fn returning false is not an error.
func MineFuncContext(ctx context.Context, db *tsdb.DB, o Options, fn func(Pattern) bool) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return &CancelError{Err: err}
	}
	defer o.Trace.StartTotal().End()
	tree := buildTree(ctx, db, o, &Result{})
	if tree == nil {
		return nil
	}
	m := newMiner(o)
	m.fn, m.done = fn, ctx.Done()
	m.mineTree(tree, nil, 1)
	m.lc.Flush(m.tr)
	if m.cancelled {
		return &CancelError{Err: ctx.Err()}
	}
	return nil
}

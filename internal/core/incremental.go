package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/recurpat/rp/internal/tsdb"
)

// Incremental maintains the RP-list statistics (Algorithm 1's per-item
// state) over an append-only transaction stream, so the candidate items for
// any prefix of the stream are available without rescanning history — the
// online setting of Aref et al.'s incremental partial periodic mining that
// the paper cites as related work. Appends are O(|transaction|).
//
// The accumulated transactions are retained, so a full RP-growth run over
// everything seen so far is available at any point via Mine.
type Incremental struct {
	o      Options
	dict   *tsdb.Dictionary
	states []itemState
	trans  []tsdb.Transaction
	lastTS int64
}

// NewIncremental validates the thresholds and returns an empty accumulator.
func NewIncremental(o Options) (*Incremental, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &Incremental{o: o, dict: tsdb.NewDictionary()}, nil
}

// Len reports the number of transactions appended so far.
func (inc *Incremental) Len() int { return len(inc.trans) }

// Append adds one transaction. Timestamps must be strictly increasing
// across calls (the stream is temporally ordered); items may repeat within
// a call and are deduplicated.
func (inc *Incremental) Append(ts int64, items ...string) error {
	if len(inc.trans) > 0 && ts <= inc.lastTS {
		return fmt.Errorf("core: out-of-order append: ts %d after %d", ts, inc.lastTS)
	}
	if len(items) == 0 {
		return fmt.Errorf("core: empty transaction at ts %d", ts)
	}
	ids := make([]tsdb.ItemID, 0, len(items))
	for _, name := range items {
		ids = append(ids, inc.dict.Intern(name))
	}
	slices.Sort(ids)
	uniq := ids[:1]
	for _, id := range ids[1:] {
		if id != uniq[len(uniq)-1] {
			uniq = append(uniq, id)
		}
	}
	for int(uniq[len(uniq)-1]) >= len(inc.states) {
		inc.states = append(inc.states, itemState{})
	}
	for _, id := range uniq {
		st := &inc.states[id]
		switch {
		case !st.seen:
			st.seen = true
			st.sup = 1
			st.idl = ts
			st.ps = 1
		case periodic(st.idl, ts, inc.o.Per):
			st.sup++
			st.ps++
			st.idl = ts
		default:
			st.erec += st.ps / inc.o.MinPS
			st.sup++
			st.ps = 1
			st.idl = ts
		}
	}
	inc.trans = append(inc.trans, tsdb.Transaction{TS: ts, Items: uniq})
	inc.lastTS = ts
	return nil
}

// Candidates returns the current RP-list snapshot: items whose estimated
// maximum recurrence over the stream so far reaches MinRec, in
// support-descending order. The accumulator state is not disturbed.
func (inc *Incremental) Candidates() []RPListEntry {
	var out []RPListEntry
	for id := range inc.states {
		st := inc.states[id]
		if !st.seen {
			continue
		}
		erec := st.erec + st.ps/inc.o.MinPS // close the open run on a copy
		if erec >= inc.o.MinRec {
			out = append(out, RPListEntry{Item: tsdb.ItemID(id), Support: st.sup, Erec: erec})
		}
	}
	slices.SortFunc(out, func(a, b RPListEntry) int {
		if a.Support != b.Support {
			return b.Support - a.Support
		}
		return cmp.Compare(a.Item, b.Item)
	})
	return out
}

// DB materializes the accumulated stream as a database sharing the
// accumulator's dictionary. The returned DB aliases internal state and must
// not be used across subsequent Appends.
func (inc *Incremental) DB() *tsdb.DB {
	return &tsdb.DB{Dict: inc.dict, Trans: inc.trans}
}

// Mine runs RP-growth over everything appended so far.
func (inc *Incremental) Mine() (*Result, error) {
	return Mine(inc.DB(), inc.o)
}

// MineContext runs RP-growth over everything appended so far, stopping at
// the next subtree-task boundary if ctx is cancelled (see MineContext).
func (inc *Incremental) MineContext(ctx context.Context) (*Result, error) {
	return MineContext(ctx, inc.DB(), inc.o)
}

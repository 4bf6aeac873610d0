package ext

import (
	"fmt"
	"math"
	"sort"

	"github.com/recurpat/rp/internal/core"
)

// Monitor watches specific patterns over a live event stream through a
// sliding time window, and reports when a pattern starts or stops being
// recurring within the window — the online counterpart of batch mining,
// for the paper's network-operations motivation (alert when a failure
// signature becomes periodic).
type Monitor struct {
	opts   core.Options
	window int64
	items  map[string]int // item name -> watch bitmap column
	watch  []watched
	lastTS int64
	seen   bool
}

type watched struct {
	names     []string
	need      []int // bitmap columns that must all be present
	ts        []int64
	recurring bool
}

// Alert reports a state transition of a watched pattern.
type Alert struct {
	Pattern []string
	// Recurring is the new state: true when the pattern just became
	// recurring within the window, false when it just stopped.
	Recurring bool
	// Recurrence is the pattern's in-window recurrence at the transition.
	Recurrence int
	// TS is the transaction timestamp that triggered the transition.
	TS int64
}

// NewMonitor builds a monitor for the given patterns. window is the width
// of the sliding time window (in timestamp units) over which recurrence is
// evaluated; it must be positive and should comfortably exceed
// o.Per*o.MinPS or no pattern can ever qualify.
func NewMonitor(o core.Options, window int64, patterns [][]string) (*Monitor, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("ext: window must be positive, got %d", window)
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("ext: no patterns to watch")
	}
	m := &Monitor{opts: o, window: window, items: make(map[string]int)}
	for _, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ext: empty watch pattern")
		}
		w := watched{names: append([]string(nil), p...)}
		sort.Strings(w.names)
		for _, name := range w.names {
			col, ok := m.items[name]
			if !ok {
				col = len(m.items)
				m.items[name] = col
			}
			w.need = append(w.need, col)
		}
		m.watch = append(m.watch, w)
	}
	return m, nil
}

// Observe feeds one transaction (its timestamp and items) and returns any
// state transitions it caused. Timestamps must be non-decreasing; a
// transaction at a timestamp already seen extends that instant and is
// treated as part of it.
func (m *Monitor) Observe(ts int64, items ...string) ([]Alert, error) {
	if m.seen && ts < m.lastTS {
		return nil, fmt.Errorf("ext: out-of-order observation: ts %d after %d", ts, m.lastTS)
	}
	m.lastTS = ts
	m.seen = true
	present := make([]bool, len(m.items))
	for _, it := range items {
		if col, ok := m.items[it]; ok {
			present[col] = true
		}
	}
	var alerts []Alert
	// The window's low edge, saturated at MinInt64: near the bottom of the
	// int64 range ts - window would wrap and evict everything.
	low := int64(math.MinInt64)
	if ts >= math.MinInt64+m.window {
		low = ts - m.window
	}
	for i := range m.watch {
		w := &m.watch[i]
		all := true
		for _, col := range w.need {
			if !present[col] {
				all = false
				break
			}
		}
		if all && (len(w.ts) == 0 || w.ts[len(w.ts)-1] != ts) {
			w.ts = append(w.ts, ts)
		}
		// Evict observations that slid out of the window.
		k := 0
		for k < len(w.ts) && w.ts[k] < low {
			k++
		}
		if k > 0 {
			w.ts = append(w.ts[:0], w.ts[k:]...)
		}
		rec, _ := core.Recurrence(w.ts, m.opts.Per, m.opts.MinPS)
		nowRecurring := rec >= m.opts.MinRec
		if nowRecurring != w.recurring {
			w.recurring = nowRecurring
			alerts = append(alerts, Alert{
				Pattern:    w.names,
				Recurring:  nowRecurring,
				Recurrence: rec,
				TS:         ts,
			})
		}
	}
	return alerts, nil
}

// Recurring reports which watched patterns are currently recurring within
// the window.
func (m *Monitor) Recurring() [][]string {
	var out [][]string
	for _, w := range m.watch {
		if w.recurring {
			out = append(out, w.names)
		}
	}
	return out
}

package ext

import (
	"math"
	"testing"

	"github.com/recurpat/rp/internal/core"
)

func monitorOptions() core.Options { return core.Options{Per: 2, MinPS: 3, MinRec: 1} }

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(core.Options{}, 10, [][]string{{"a"}}); err == nil {
		t.Error("invalid options must fail")
	}
	if _, err := NewMonitor(monitorOptions(), 0, [][]string{{"a"}}); err == nil {
		t.Error("zero window must fail")
	}
	if _, err := NewMonitor(monitorOptions(), 10, nil); err == nil {
		t.Error("no patterns must fail")
	}
	if _, err := NewMonitor(monitorOptions(), 10, [][]string{{}}); err == nil {
		t.Error("empty pattern must fail")
	}
}

func TestMonitorFiresOnRecurrence(t *testing.T) {
	m, err := NewMonitor(monitorOptions(), 100, [][]string{{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	// Two co-occurrences: not yet recurring (minPS=3).
	for ts := int64(1); ts <= 2; ts++ {
		alerts, err := m.Observe(ts, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) != 0 {
			t.Fatalf("premature alert at ts %d: %+v", ts, alerts)
		}
	}
	// Third consecutive co-occurrence completes an interesting interval.
	alerts, err := m.Observe(3, "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || !alerts[0].Recurring || alerts[0].TS != 3 {
		t.Fatalf("expected recurring alert at ts 3, got %+v", alerts)
	}
	if got := m.Recurring(); len(got) != 1 {
		t.Fatalf("Recurring() = %v", got)
	}
	// Items observed separately do not count as co-occurrence; after the
	// window slides past the burst, the pattern stops recurring.
	alerts, err = m.Observe(200, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Recurring {
		t.Fatalf("expected stop alert after window slide, got %+v", alerts)
	}
	if got := m.Recurring(); len(got) != 0 {
		t.Fatalf("Recurring() after stop = %v", got)
	}
}

func TestMonitorWindowEviction(t *testing.T) {
	// minRec=2: needs two separated bursts inside the window.
	o := core.Options{Per: 2, MinPS: 3, MinRec: 2}
	m, err := NewMonitor(o, 50, [][]string{{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	feedBurst := func(start int64) []Alert {
		var last []Alert
		for ts := start; ts < start+3; ts++ {
			alerts, err := m.Observe(ts, "a")
			if err != nil {
				t.Fatal(err)
			}
			last = alerts
		}
		return last
	}
	feedBurst(1) // one interval: rec=1 < 2
	if got := m.Recurring(); len(got) != 0 {
		t.Fatalf("one burst should not recur at minRec=2: %v", got)
	}
	alerts := feedBurst(20) // second interval inside window: rec=2
	if len(alerts) != 1 || !alerts[0].Recurring || alerts[0].Recurrence != 2 {
		t.Fatalf("expected rec=2 alert, got %+v", alerts)
	}
	// A third burst far away slides the first two out: back to rec=1.
	stopSeen := false
	for ts := int64(90); ts < 93; ts++ {
		alerts, err := m.Observe(ts, "a")
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alerts {
			if !a.Recurring {
				stopSeen = true
			}
		}
	}
	if !stopSeen {
		t.Error("window eviction never produced a stop alert")
	}
}

func TestMonitorOutOfOrder(t *testing.T) {
	m, err := NewMonitor(monitorOptions(), 10, [][]string{{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(5, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(4, "a"); err == nil {
		t.Error("out-of-order observation must fail")
	}
	// Same timestamp is allowed (extends the instant) and does not double
	// count.
	if _, err := m.Observe(5, "a"); err != nil {
		t.Errorf("same-ts observation rejected: %v", err)
	}
	if len(m.watch[0].ts) != 1 {
		t.Errorf("duplicate ts recorded: %v", m.watch[0].ts)
	}
}

func TestMonitorMatchesBatchMining(t *testing.T) {
	// Feeding a whole database through a window larger than its span must
	// end with exactly the batch-recurring watched patterns flagged.
	db := mustDB(t, "1\ta b g\n2\ta c d\n3\ta b e f\n4\ta b c d\n5\tc d e f g\n"+
		"6\te f g\n7\ta b c g\n9\tc d\n10\tc d e f\n11\ta b e f\n12\ta b c d e f g\n14\ta b g\n")
	o := core.Options{Per: 2, MinPS: 3, MinRec: 2}
	watch := [][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"a", "g"}, {"c"}}
	m, err := NewMonitor(o, 1000, watch)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range db.Trans {
		names := db.PatternNames(tr.Items)
		if _, err := m.Observe(tr.TS, names...); err != nil {
			t.Fatal(err)
		}
	}
	rec := m.Recurring()
	// Table 2: ab, cd, ef recur; ag and c do not.
	if len(rec) != 3 {
		t.Fatalf("Recurring() = %v, want the three Table 2 pairs", rec)
	}
}

func TestMonitorWindowAtMinInt64(t *testing.T) {
	// At the bottom of the int64 range ts - window wraps; the window edge
	// must saturate instead, or every observation is evicted on arrival.
	m, err := NewMonitor(monitorOptions(), 10, [][]string{{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	var fired []Alert
	for ts := int64(math.MinInt64 + 1); ts < math.MinInt64+4; ts++ {
		alerts, err := m.Observe(ts, "a")
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, alerts...)
	}
	if len(fired) != 1 || !fired[0].Recurring || fired[0].TS != math.MinInt64+3 {
		t.Fatalf("alerts = %+v, want one start alert at the third observation", fired)
	}
	if got := len(m.watch[0].ts); got != 3 {
		t.Fatalf("window holds %d observations, want 3", got)
	}
}

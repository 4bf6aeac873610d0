package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/recurpat/rp/internal/api"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/core"
	"github.com/recurpat/rp/internal/tsdb"
)

// loadAll generates every served and pool dataset in-process, keyed by the
// name cells use.
func loadAll() (map[string]*tsdb.DB, error) {
	dbs := map[string]*tsdb.DB{}
	for _, d := range served {
		db, err := d.load()
		if err != nil {
			return nil, err
		}
		dbs[d.Name] = db
	}
	for _, p := range pool {
		db, _, err := p.generate()
		if err != nil {
			return nil, err
		}
		dbs[p.ID] = db
	}
	return dbs, nil
}

// pinnedCells lists every key a run of any workload can draw.
func pinnedCells() []cell {
	var out []cell
	seen := map[string]bool{}
	add := func(c cell) {
		if !seen[c.String()] {
			seen[c.String()] = true
			out = append(out, c)
		}
	}
	for _, s := range append(append([]sweep{}, coldSweeps...), shardSweeps...) {
		for _, c := range s.universe() {
			add(c)
		}
	}
	for _, c := range hotKeys {
		add(c)
	}
	for _, p := range pool {
		for _, c := range p.Sweep.universe() {
			add(c)
		}
	}
	return out
}

// writePins recomputes every pinned answer with the vertical miner and
// writes the pin file.
func writePins(path string, log *cliio.Writer) error {
	dbs, err := loadAll()
	if err != nil {
		return err
	}
	p := pins{Datasets: map[string]string{}, Answers: map[string]string{}}
	for _, name := range sortedKeys(dbs) {
		p.Datasets[name] = fmt.Sprintf("%016x", dbs[name].Fingerprint())
	}
	cells := pinnedCells()
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan cell)
		errs []error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				d, err := verticalDigest(dbs[c.DS], c)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					p.Answers[c.String()] = d
				}
				mu.Unlock()
			}
		}()
	}
	start := now()
	for i, c := range cells {
		next <- c
		if i%100 == 99 {
			fmt.Fprintf(log, "pinned %d/%d keys in %.0fs\n", i+1, len(cells), time.Since(start).Seconds())
		}
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	if err := log.Err(); err != nil {
		return err
	}
	return writeJSONFile(path, p)
}

func verticalDigest(db *tsdb.DB, c cell) (string, error) {
	if db == nil {
		return "", fmt.Errorf("%s: unknown dataset", c)
	}
	res, err := core.MineVertical(db, core.Options{Per: c.Per, MinPS: c.MinPS, MinRec: c.MinRec})
	if err != nil {
		return "", fmt.Errorf("%s: %w", c, err)
	}
	return answerDigest(api.PatternsFromCore(db, res.Patterns)), nil
}

// writeJSONFile writes v as indented JSON with sorted map keys.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

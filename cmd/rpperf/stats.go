package main

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"
)

// now reads the wall clock. The benchmark's timings all start here.
func now() time.Time {
	return time.Now() //rpvet:allow determinism — a benchmark measures wall time
}

// newRNG returns the deterministic stream for one purpose of a run: the
// same (seed, stream) pair always draws the same sequence.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Streams of the seeded draws, one per purpose, so adding draws to one
// purpose never shifts another's sequence.
const (
	streamKeys uint64 = iota + 1
	streamArrivals
	streamSample
	streamCalib
	streamWorker // + worker index
)

// median of xs (the mean of the two middle values for even lengths), 0
// for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least ten samples
// beyond it: the (n-10)th smallest value, at percentile 100·(n-10)/n. With
// ten or fewer samples there is no such percentile; tail then reports the
// maximum at percentile 100 so the run still prints a value.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// zipfDeck returns a shuffled deck of size cards over ranks 0..n-1 in
// which rank k appears in proportion to 1/(k+1)^s, at least once. Dealing
// keys from a deck rather than drawing each one independently holds every
// run's key mix at the Zipf shares: seeds change the order, not the mix.
func zipfDeck(n int, s float64, size int, r *rand.Rand) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	var deck []int
	for i := range w {
		for c := max(1, int(math.Round(float64(size)*w[i]/sum))); c > 0; c-- {
			deck = append(deck, i)
		}
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// poissonDues returns the due offsets of Poisson arrivals at rate per
// second over d.
func poissonDues(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// openLoop sends request i at start+dues[i], whatever the state of earlier
// requests, through conns senders (the client's connection limit). A
// request that finds every sender busy waits for one, and that wait counts:
// lat[i] runs from the due time, not from when the request was sent, so a
// stall delays every later request's clock. late[i] is how long after its
// due time the generator handed the request to the senders. send returns
// when the reply was complete, so work a sender does after that (tracing)
// is not latency. Dispatch stops when ctx is done; undispatched requests
// keep sent[i] false.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, conns int, send func(i int) time.Time) (lat, late []time.Duration, sent []bool) {
	lat = make([]time.Duration, len(dues))
	late = make([]time.Duration, len(dues))
	sent = make([]bool, len(dues))
	queue := make(chan int, len(dues)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lat[i] = send(i).Sub(start.Add(dues[i]))
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		late[i] = time.Since(due)
		sent[i] = true
		queue <- i
	}
	close(queue)
	wg.Wait()
	return lat, late, sent
}

// calibrate times a fixed CPU-bound job — sorting 2^20 seeded integers,
// a busy-sort loop — five times and returns the median in ms. A
// run compares its calibration at start and end to tell a host that
// changed speed mid-run from a program that did.
func calibrate() float64 {
	var times []float64
	runtime.GC() // start from a quiet heap whatever the run left behind
	vals := make([]int, 1<<20)
	for rep := 0; rep < 5; rep++ {
		r := newRNG(1, streamCalib)
		for i := range vals {
			vals[i] = r.Int()
		}
		start := now()
		slices.Sort(vals)
		times = append(times, ms(time.Since(start)))
	}
	return median(times)
}

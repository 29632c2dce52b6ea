package main

import (
	"math"
	"net/http"
	"sync"
	"time"
)

// phase is the outcome of one closed-loop phase.
type phase struct {
	latMs     []float64 // one per request, failed ones included
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration // start to last completion
}

// phaseLimits says when a closed-loop phase ends. A fixed-count phase
// issues exactly count requests. A timed phase runs until minDur has
// passed and minReqs requests completed, or until maxDur has passed,
// and then issues up to the next multiple of period, so it always
// measures whole periods of the workload's request mix.
type phaseLimits struct {
	count   int
	minDur  time.Duration
	minReqs int
	maxDur  time.Duration
	period  int
}

// closedLoop drives w with w.clients() clients, each issuing its next
// request as soon as the previous one completes. Request indices are
// handed out in order from first, so the sequence is the workload's
// pure request sequence whatever the interleaving.
func closedLoop(w workload, hc *http.Client, base string, first int, lim phaseLimits) phase {
	var (
		mu   sync.Mutex // guards everything below
		next = first
		end  = math.MaxInt // first index not to issue
		out  phase
		last time.Time
		wg   sync.WaitGroup
	)
	if lim.count > 0 {
		end = first + lim.count
	}
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= end {
			return 0, false
		}
		next++
		return next - 1, true
	}
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				t0 := time.Now()
				err := w.do(hc, base, i)
				t1 := time.Now()
				mu.Lock()
				out.latMs = append(out.latMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
				out.attempted++
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
				if t1.After(last) {
					last = t1
				}
				el := t1.Sub(start)
				if end == math.MaxInt && (el >= lim.minDur && out.attempted >= lim.minReqs || el >= lim.maxDur) {
					p := max(lim.period, 1)
					end = first + (next-first+p-1)/p*p
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = last.Sub(start)
	return out
}

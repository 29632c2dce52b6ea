// Package par provides the repository's parallelism primitives: a bounded
// worker pool with ordered results (Map, ForEach) and its streaming
// counterpart (Pool).
//
// Determinism is the design constraint. Map commits results by index, so a
// caller that fans deterministic per-item work across workers gets output
// identical to a serial loop regardless of the worker count or scheduling.
// Callers keep any randomness item-local (leaf-local RNG forks, per-run
// seeds) and the whole pipeline stays bit-reproducible.
//
// The default worker count is GOMAXPROCS, overridable process-wide with
// the MOCKTAILS_PARALLELISM environment variable and per-call with an
// explicit worker argument (values <= 0 select the default).
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pool metrics. Utilization is measured per ForEach run at worker
// granularity (each worker's lifetime versus the pool's wall time), so
// the accounting cost is two clock reads per worker, not per task —
// cheap enough to leave on unconditionally without disturbing the
// determinism or throughput of the fitted pipeline.
var (
	mRuns        = obs.NewCounter("par.runs")
	mTasks       = obs.NewCounter("par.tasks")
	mBusyNs      = obs.NewCounter("par.worker_busy_ns")
	mWallNs      = obs.NewCounter("par.worker_wall_ns")
	mUtilization = obs.NewGauge("par.utilization")
)

// EnvVar is the environment variable that overrides the default worker
// count for the whole process.
const EnvVar = "MOCKTAILS_PARALLELISM"

// Default returns the process-wide default worker count: the value of
// MOCKTAILS_PARALLELISM when set to a positive integer, else GOMAXPROCS.
func Default() int {
	if s := os.Getenv(EnvVar); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers normalises a caller-supplied worker count: positive values are
// returned unchanged, anything else selects Default().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// Map applies fn to every index in [0, n) using at most workers
// goroutines (<= 0 selects Default()) and returns the results ordered by
// index. Work is distributed dynamically (an atomic counter), so uneven
// item costs balance across workers; results are committed by index, so
// the output is identical to a serial loop.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// ForEach applies fn to every index in [0, n) using at most workers
// goroutines (<= 0 selects Default()). It returns once every call has
// completed. When only one worker is requested (or useful) the loop runs
// on the calling goroutine with no synchronisation overhead.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	mRuns.Inc()
	mTasks.Add(uint64(n))
	if workers == 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		wall := time.Since(start)
		mBusyNs.Add(uint64(wall))
		mWallNs.Add(uint64(wall))
		mUtilization.Set(1)
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal atomic.Value
		busyNs   atomic.Int64
	)
	start := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			workerStart := time.Now()
			defer func() {
				busyNs.Add(int64(time.Since(workerStart)))
				wg.Done()
			}()
			for !panicked.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							// First panic wins; re-raised on the caller's
							// goroutine so parallel callers see the same
							// recoverable panic a serial loop would.
							if panicked.CompareAndSwap(false, true) {
								panicVal.Store(r)
							}
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	mBusyNs.Add(uint64(busyNs.Load()))
	mWallNs.Add(uint64(int64(wall) * int64(workers)))
	if wall > 0 {
		mUtilization.Set(float64(busyNs.Load()) / (float64(wall) * float64(workers)))
	}
	if panicked.Load() {
		panic(panicVal.Load())
	}
}

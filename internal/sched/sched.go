// Package sched is the batch engine that fans independent simulation
// cases out across worker goroutines while preserving bit-for-bit
// determinism.
//
// Every pipeline in fsml — training-data collection, benchmark case
// sweeps, the experiment lab — runs many cases that are independent by
// construction: each case owns its machine, its address space and its
// PMU, and derives its RNG seed from (rootSeed, caseIndex) rather than
// from any shared generator state (see xrand.DeriveSeed). That makes the
// work embarrassingly parallel *and* order-free: the engine may execute
// cases in any interleaving, but it always reassembles results in
// submission order, so a parallel run produces byte-identical datasets,
// trees and reports to a sequential one.
//
// The engine provides:
//
//   - bounded-queue backpressure: at most QueueDepth cases are staged
//     ahead of the workers, so huge grids never materialize all at once;
//   - context cancellation with first-error propagation: the error of
//     the lowest-indexed failing case wins, deterministically, and
//     cancellation stops feeding new cases immediately;
//   - a progress callback, serialized by the engine, so long sweeps are
//     observable from CLIs and services.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Options configures a batch run. The zero value is valid: one worker
// per GOMAXPROCS slot, a 2x-workers staging queue, no progress callback.
type Options struct {
	// Parallelism is the maximum number of concurrently running cases.
	// Zero (or negative) selects runtime.GOMAXPROCS(0); one forces the
	// engine onto the caller's goroutine (no concurrency at all), which
	// is also the reference execution order for determinism tests.
	Parallelism int
	// QueueDepth bounds how many case indices may be staged ahead of the
	// workers (backpressure for very large grids). Zero selects twice the
	// worker count.
	QueueDepth int
	// OnProgress, when non-nil, is invoked after each case completes with
	// the number of completed cases and the batch total. Calls are
	// serialized by the engine; done is monotonically increasing.
	OnProgress func(done, total int)
}

// Workers resolves the effective worker count for a batch of n cases.
func (o Options) Workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// queueDepth resolves the staging-queue bound for a worker count.
func (o Options) queueDepth(workers int) int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 2 * workers
}

// indexedErr pairs an error with the case index it came from, so the
// engine can report the lowest-indexed failure regardless of completion
// order.
type indexedErr struct {
	index int
	err   error
}

// PanicError is the error a panicking case is converted into. Before
// this conversion existed, a panicking fn killed its worker goroutine
// outright (taking the whole process with it, mid-batch); now the panic
// is recovered inside the case call, loses the race like any other
// failure (lowest index wins), and the batch shuts down cleanly without
// deadlocking or corrupting sibling results.
type PanicError struct {
	// Index is the case whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: case %d panicked: %v", e.Index, e.Value)
}

// call invokes fn(ctx, i), converting a panic into a *PanicError.
func call[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (r T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Map runs fn(ctx, i) for every i in [0, n) across the configured
// workers and returns the results in index order. fn must be safe for
// concurrent invocation with distinct indices; determinism is the
// caller's contract (derive all randomness from i, share nothing
// mutable).
//
// On failure, Map returns the error of the lowest-indexed failing case
// and cancels the context passed to still-running cases; results are
// discarded. Map also stops early when ctx is cancelled, returning
// ctx.Err() unless a case failure already occurred at a lower index.
// A panicking fn is recovered and reported as a *PanicError under the
// same lowest-index rule: it never kills a worker, deadlocks the
// collector, or corrupts sibling results.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	results := make([]T, n)
	workers := opts.Workers(n)

	if workers == 1 {
		// Reference path: the caller's goroutine, strict index order.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := call(ctx, i, fn)
			if err != nil {
				return nil, err
			}
			results[i] = r
			if opts.OnProgress != nil {
				opts.OnProgress(i+1, n)
			}
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Feeder: stages indices through a bounded queue (the channel buffer)
	// so the feeder never runs more than QueueDepth cases ahead of the
	// workers, and stops feeding the moment the batch is cancelled.
	indices := make(chan int, opts.queueDepth(workers))
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr *indexedErr
		// progressMu serializes OnProgress calls and guards done: the
		// count and the call share one critical section, so done reaches
		// the callback in increasing order.
		progressMu sync.Mutex
		done       int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstErr.index {
			firstErr = &indexedErr{index: i, err: err}
		}
		mu.Unlock()
		cancel()
	}
	progress := func() {
		if opts.OnProgress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		opts.OnProgress(done, n)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				// Check for cancellation before dispatching each queued
				// item: once the batch is cancelled, already-staged
				// indices must not start work — cancellation latency is
				// one in-flight case per worker, not a queue drain.
				if ctx.Err() != nil {
					return
				}
				r, err := call(ctx, i, fn)
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
				progress()
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach is Map for side-effecting case functions with no result value.
func ForEach(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, opts, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

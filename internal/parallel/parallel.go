// Package parallel provides a small bounded worker pool for fanning out
// independent jobs — grid cells of a benchmark sweep, per-seed simulation
// runs — while keeping results in deterministic input order.
//
// The pool is deliberately minimal: jobs are addressed by index, results
// land at the same index, and the first failure cancels the remainder.
// Because each KRISP simulation owns its engine and RNG, running cells
// concurrently and reading results in index order produces output that is
// byte-identical to a serial run (see internal/bench's determinism test).
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is returned by Map when a job panics. It carries the job
// index, the recovered value, and the goroutine stack at the panic site.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs fn(ctx, i) for i in [0, n) on at most workers goroutines and
// returns the results in index order: out[i] is fn's result for job i,
// regardless of which worker ran it or when it finished.
//
// workers <= 0 selects runtime.GOMAXPROCS(0). At most n workers are
// started. Jobs are dispatched in index order via a shared atomic counter,
// so with workers == 1 the jobs run exactly in sequence.
//
// The first failure — an fn error, a panic (wrapped in *PanicError), or
// ctx becoming done — cancels the context passed to fn, and Map returns
// after all started jobs finish. When several jobs fail, the error of the
// lowest-index failed job is returned, preferring real failures over
// context.Canceled noise from the cancellation cascade; a nil result slice
// accompanies any error.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return []T{}, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup

	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		out[i], err = fn(ctx, i)
		return err
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // keep draining so every slot records an error
				}
				if err := run(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// Pick the lowest-index real failure; fall back to the lowest-index
	// context error only if nothing failed on its own.
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return nil, fmt.Errorf("parallel: job %d: %w", i, err)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

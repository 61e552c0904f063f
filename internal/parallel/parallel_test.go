package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdersResultsUnderRandomFinishOrder checks that results land at
// their job's index even when jobs finish in a scrambled order.
func TestMapOrdersResultsUnderRandomFinishOrder(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
	}
	out, err := Map(context.Background(), 8, n, func(_ context.Context, i int) (int, error) {
		time.Sleep(delays[i])
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapMatchesSerial checks that any worker count produces the same
// result slice as workers=1.
func TestMapMatchesSerial(t *testing.T) {
	const n = 40
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("cell-%03d", i), nil
	}
	serial, err := Map(context.Background(), 1, n, fn)
	if err != nil {
		t.Fatalf("serial Map: %v", err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		par, err := Map(context.Background(), workers, n, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestMapErrorCancelsRemainingJobs checks that a failing job stops the
// grid: jobs dispatched after the failure observe a canceled context and
// are not run.
func TestMapErrorCancelsRemainingJobs(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 2, n, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Errorf("err = %q, want it to name job 3", err)
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d jobs ran despite early failure", got)
	}
}

// TestMapContextCancellationMidGrid cancels the caller's context while the
// grid is in flight and checks Map returns the context error promptly
// without running every job.
func TestMapContextCancellationMidGrid(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 4, n, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d jobs ran despite cancellation", got)
	}
}

// TestMapPanicSurfacesAsError checks that a panicking job is converted to
// a *PanicError naming the job, rather than crashing the process.
func TestMapPanicSurfacesAsError(t *testing.T) {
	_, err := Map(context.Background(), 4, 32, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("Map returned nil error for panicking job")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Index != 5 {
		t.Errorf("PanicError.Index = %d, want 5", pe.Index)
	}
	if pe.Value != "kaboom" {
		t.Errorf("PanicError.Value = %v, want kaboom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
}

// TestMapLowestIndexErrorWins checks the deterministic error selection:
// when several jobs fail, the lowest-index real failure is reported.
func TestMapLowestIndexErrorWins(t *testing.T) {
	// Serial dispatch with one worker makes both failures deterministic.
	_, err := Map(context.Background(), 1, 10, func(_ context.Context, i int) (int, error) {
		if i == 2 || i == 7 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "fail-2") {
		t.Fatalf("err = %v, want the job-2 failure", err)
	}
}

// BenchmarkMapDispatch measures the pool's per-job dispatch overhead with
// a trivial job body, the floor under every grid fan-out.
func BenchmarkMapDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), 4, 64, func(_ context.Context, j int) (int, error) {
			return j, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMapDefaultsAndEdgeCases covers workers<=0 and n<=0.
func TestMapDefaultsAndEdgeCases(t *testing.T) {
	out, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(out) != 4 {
		t.Fatalf("workers=0: out=%v err=%v", out, err)
	}
	out, err = Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for n=0")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 4, 0, func(_ context.Context, i int) (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0 with canceled ctx: err = %v, want context.Canceled", err)
	}
}

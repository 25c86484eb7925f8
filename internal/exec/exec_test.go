package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 137
		var mu sync.Mutex
		seen := make(map[int]int, n)
		st, err := ForEach(context.Background(), workers, n, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d outside [0,%d)", w, workers)
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Tasks != n {
			t.Fatalf("workers=%d: %d tasks, want %d", workers, st.Tasks, n)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: covered %d indices, want %d", workers, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d evaluated %d times", workers, i, c)
			}
		}
		if workers > n && st.Workers > n {
			t.Fatalf("workers not clamped: %d for n=%d", st.Workers, n)
		}
	}
}

func TestForEachZeroAndOneItems(t *testing.T) {
	st, err := ForEach(context.Background(), 8, 0, func(w, i int) error { return nil })
	if err != nil || st.Tasks != 0 {
		t.Fatalf("n=0: stats %+v err %v", st, err)
	}
	var ran atomic.Int64
	st, err = ForEach(context.Background(), 8, 1, func(w, i int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || st.Tasks != 1 || ran.Load() != 1 {
		t.Fatalf("n=1: stats %+v err %v ran %d", st, err, ran.Load())
	}
	if st.Workers != 1 {
		t.Fatalf("n=1 should run serially, got %d workers", st.Workers)
	}
}

func TestForEachErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	st, err := ForEach(context.Background(), 4, 10_000, func(w, i int) error {
		if i == 17 {
			return boom
		}
		after.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !st.Canceled {
		t.Fatal("stats should mark the run canceled")
	}
	if after.Load() >= 10_000 {
		t.Fatal("cancellation did not stop the remaining work")
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	started := make(chan struct{}, 1)
	stVal := make(chan Stats, 1)
	errVal := make(chan error, 1)
	go func() {
		st, err := ForEach(ctx, 2, 1_000_000, func(w, i int) error {
			select {
			case started <- struct{}{}:
			default:
			}
			ran.Add(1)
			return nil
		})
		stVal <- st
		errVal <- err
	}()
	<-started
	cancel()
	st, err := <-stVal, <-errVal
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !st.Canceled {
		t.Fatal("stats should mark the run canceled")
	}
	if ran.Load() >= 1_000_000 {
		t.Fatal("cancellation did not stop the remaining work")
	}
}

func TestStatsRecord(t *testing.T) {
	tr := obs.NewTrace()
	Stats{Workers: 4, Tasks: 100, Steals: 7, Canceled: true}.Record(tr)
	if got := tr.Get(obs.TParallelWorkers); got != 4 {
		t.Fatalf("workers counter %d", got)
	}
	if got := tr.Get(obs.TParallelTasks); got != 100 {
		t.Fatalf("tasks counter %d", got)
	}
	if got := tr.Get(obs.TParallelSteals); got != 7 {
		t.Fatalf("steals counter %d", got)
	}
	if got := tr.Get(obs.TParallelCancels); got != 1 {
		t.Fatalf("cancels counter %d", got)
	}
	// Record is nil-safe like the rest of the trace API.
	Stats{Workers: 1}.Record(nil)
}

func TestScatterCollectsPerIndexErrors(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	errs, st := Scatter(context.Background(), 4, 6, func(i int) error {
		ran.Add(1)
		if i%2 == 1 {
			return boom
		}
		return nil
	})
	if ran.Load() != 6 {
		t.Fatalf("ran %d of 6 tasks; Scatter must attempt all", ran.Load())
	}
	if st.Canceled {
		t.Fatal("errors must not cancel the scatter")
	}
	for i, err := range errs {
		if i%2 == 1 && !errors.Is(err, boom) {
			t.Fatalf("errs[%d] = %v, want boom", i, err)
		}
		if i%2 == 0 && err != nil {
			t.Fatalf("errs[%d] = %v, want nil", i, err)
		}
	}
}

func TestScatterCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs, _ := Scatter(ctx, 2, 4, func(i int) error { return nil })
	missing := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("canceled scatter must mark unattempted indexes with ctx error")
	}
}

func TestScatterSerial(t *testing.T) {
	var order []int
	errs, _ := Scatter(context.Background(), 1, 3, func(i int) error {
		order = append(order, i)
		return nil
	})
	if len(errs) != 3 {
		t.Fatalf("errs len %d", len(errs))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial scatter ran out of order: %v", order)
		}
	}
}

package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce also covers n = 0 never calling fn: calls[i]
// would panic on the empty slice.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		for _, workers := range []int{-1, 0, 1, 3, n + 5} {
			calls := make([]atomic.Int32, n)
			if err := For(n, workers, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 1005} {
		err := For(1000, workers, func(i int) error {
			if i == 3 || i == 700 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Errorf("workers=%d: got %v, want the index-3 error", workers, err)
		}
	}
}

func TestForOneWorkerStopsAtFirstFailure(t *testing.T) {
	fail := errors.New("fail")
	var last int
	err := For(1000, 1, func(i int) error {
		last = i
		if i == 3 || i == 700 {
			return fail
		}
		return nil
	})
	if err != fail || last != 3 {
		t.Errorf("got (%v, last index %d), want (%v, 3)", err, last, fail)
	}
}

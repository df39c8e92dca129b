package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelBlock is how many consecutive indices a parallelEach worker
// claims at a time: large enough that claiming costs nothing next to
// decoding a block, small enough that both cores finish together.
const parallelBlock = 64

// parallelEach calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when all calls have. Callers write results into
// index-aligned slots, so the outcome does not depend on scheduling.
func parallelEach(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+parallelBlock-1)/parallelBlock)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(parallelBlock)) - parallelBlock
				if start >= n {
					return
				}
				for i := start; i < min(start+parallelBlock, n); i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// lowestError keeps the error of the lowest index reported to it — what
// a sequential loop that stops at its first failure would have returned.
type lowestError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (e *lowestError) set(i int, err error) {
	e.mu.Lock()
	if e.err == nil || i < e.idx {
		e.idx, e.err = i, err
	}
	e.mu.Unlock()
}

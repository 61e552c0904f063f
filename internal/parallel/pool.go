package parallel

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Pool is a persistent fixed-size worker pool for repeated index fan-outs.
// Map spins up and tears down goroutines per call, which is fine for a
// benchmark grid but not for a simulation scheduler that fans out thousands
// of times per run: goroutine startup and the final join dominate when each
// round's work is tens of microseconds. A Pool starts its workers once;
// each Run hands them one round of jobs through a channel and a pair of
// atomic counters, so the steady-state cost of a round is one channel
// operation per woken worker and no goroutine churn.
//
// Rounds are synchronous: Run returns only after every job of the round has
// finished, and the caller must not issue concurrent Runs. Jobs are
// dispatched in index order via an atomic counter (the same discipline as
// Map), so a Pool with one worker executes jobs exactly in sequence — the
// zero-overhead serial mode the fleet's determinism oracle compares
// against.
//
// A panic in a job is captured and re-raised as *PanicError from Run after
// the round winds down (remaining jobs are abandoned, in-flight jobs
// finish). The pool itself survives and can run further rounds.
type Pool struct {
	workers int
	rounds  []chan *poolRound // one buffered channel per background worker
	cur     poolRound
	closed  bool
}

// poolRound is one fan-out. Jobs [0,n) are claimed through next; left
// counts participating workers still inside the round, and the last one
// out closes done.
type poolRound struct {
	fn    func(i int)
	n     int
	next  atomic.Int64
	left  atomic.Int64
	panic atomic.Pointer[PanicError]
	done  chan struct{}
}

// NewPool starts a pool of the given size. workers <= 0 selects
// runtime.GOMAXPROCS(0). A pool of one worker starts no goroutines at all —
// Run executes jobs inline on the caller.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.rounds = make([]chan *poolRound, workers-1)
	for w := range p.rounds {
		ch := make(chan *poolRound, 1)
		p.rounds[w] = ch
		go poolWorker(ch)
	}
	return p
}

// Workers returns the pool size (background workers plus the caller).
func (p *Pool) Workers() int { return p.workers }

func poolWorker(rounds <-chan *poolRound) {
	for r := range rounds {
		runRound(r)
	}
}

// runRound claims and executes jobs until the round is exhausted, then
// checks out; the last participant to leave closes done. A participant's
// final access to the round is its left.Add(-1) unless it is the closer,
// so once done is closed the round memory is free for reuse.
func runRound(r *poolRound) {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			break
		}
		runJob(r, i)
	}
	if r.left.Add(-1) == 0 && r.done != nil {
		close(r.done)
	}
}

func runJob(r *poolRound, i int) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Index: i, Value: v, Stack: debug.Stack()}
			r.panic.CompareAndSwap(nil, pe)
			// Abandon the round's unclaimed jobs so the panic surfaces
			// promptly; jobs already claimed by other workers still finish.
			r.next.Store(int64(r.n))
		}
	}()
	r.fn(i)
}

// Run executes fn(i) for i in [0, n) across the pool's workers and returns
// when all have finished. The caller participates as a worker, so a round
// needs no handoff before the first job starts. If any job panicked, the
// first captured panic is re-raised on the caller as *PanicError. Not safe
// for concurrent use.
func (p *Pool) Run(n int, fn func(i int)) {
	if p.closed {
		panic("parallel: Run on closed Pool")
	}
	if n <= 0 {
		return
	}
	r := &p.cur
	*r = poolRound{fn: fn, n: n}
	wake := p.workers - 1
	if wake > n-1 {
		wake = n - 1
	}
	r.left.Store(int64(wake + 1))
	if wake > 0 {
		r.done = make(chan struct{})
		for w := 0; w < wake; w++ {
			p.rounds[w] <- r
		}
	}
	runRound(r)
	if r.done != nil {
		<-r.done
	}
	r.fn = nil
	if pe := r.panic.Load(); pe != nil {
		panic(pe)
	}
}

// Close stops the background workers. The pool must be idle; Run after
// Close panics.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.rounds {
		close(ch)
	}
}

package runner

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Gate is the persistent sibling of Map: a counting semaphore that
// bounds how many jobs run at once across many callers, with a bounded
// wait queue. Map fits one sweep whose jobs all exist up front; a
// long-running service (cmd/scenariod) instead receives work from many
// clients and needs admission control — a full wait queue must refuse
// new work at once rather than let goroutines and memory grow without
// bound.
//
// Do runs the job on the caller's own goroutine: the gate starts no
// goroutines and owns no queue of jobs, only a count of slots and the
// callers waiting for one. Waiters take freed slots in arrival order.
// The gate makes no determinism claims beyond that; the scenario
// store's content addressing is what keeps concurrently-scheduled
// simulation results deterministic.
var (
	// ErrQueueFull refuses a Do that found every slot busy and the wait
	// queue at its bound. The caller owns backpressure (scenariod maps
	// it to HTTP 503); the gate never blocks a caller it cannot queue.
	ErrQueueFull = errors.New("runner: admission queue full")
	// ErrPoolClosed refuses a Do after Close, and every caller that was
	// still waiting for a slot when Close ran.
	ErrPoolClosed = errors.New("runner: pool closed")
)

// Refused reports whether err is, or wraps, a gate refusal. A refused
// job never ran, so a refusal says nothing about the job's own result.
func Refused(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPoolClosed)
}

// Gate bounds concurrent jobs to a fixed number of slots. A nil *Gate
// is valid and runs every job at once.
type Gate struct {
	depth int

	mu      sync.Mutex
	free    int
	waiters []chan bool // FIFO; each receives true when handed a slot, false at Close
	closed  bool
	peak    int
	running sync.WaitGroup

	executed  atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
}

// NewGate returns a gate with workers slots (<= 0 selects GOMAXPROCS)
// and room for depth waiting callers (<= 0 selects 4x the slot count, a
// small queue by design: admission control beats buffering for a
// service whose jobs each take milliseconds to seconds).
func NewGate(workers, depth int) *Gate {
	workers = Parallelism(workers)
	if depth <= 0 {
		depth = 4 * workers
	}
	return &Gate{depth: depth, free: workers}
}

// Do runs job on the calling goroutine once a slot is free, and
// returns nil after it ran. It refuses with ErrQueueFull, at once and
// without running job, when every slot is busy and depth callers
// already wait, and with ErrPoolClosed after Close. A panicking job
// frees its slot, and the panic goes on to the caller.
func (g *Gate) Do(job func()) error {
	if g == nil {
		job()
		return nil
	}
	g.mu.Lock()
	switch {
	case g.closed:
		g.mu.Unlock()
		return ErrPoolClosed
	case g.free > 0:
		g.free--
		g.running.Add(1)
		g.mu.Unlock()
	case len(g.waiters) >= g.depth:
		g.mu.Unlock()
		g.rejected.Add(1)
		return ErrQueueFull
	default:
		granted := make(chan bool, 1)
		g.waiters = append(g.waiters, granted)
		g.peak = max(g.peak, len(g.waiters))
		g.mu.Unlock()
		if !<-granted {
			return ErrPoolClosed
		}
	}
	defer g.release()
	g.executed.Add(1) // before the job, so a panicking one counts too
	job()
	return nil
}

// release hands a finished job's slot to the longest waiter, or frees
// it when nobody waits.
func (g *Gate) release() {
	g.mu.Lock()
	if len(g.waiters) > 0 {
		next := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.running.Add(1)
		next <- true
	} else {
		g.free++
	}
	g.mu.Unlock()
	g.running.Done()
}

// Close refuses every waiting caller and all later ones with
// ErrPoolClosed, and returns once the running jobs have ended.
func (g *Gate) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		for _, w := range g.waiters {
			w <- false
		}
		g.cancelled.Add(int64(len(g.waiters)))
		g.waiters = nil
	}
	g.mu.Unlock()
	g.running.Wait()
}

// PoolMetrics is a point-in-time snapshot of gate activity.
type PoolMetrics struct {
	// Executed counts jobs run; Rejected callers refused with
	// ErrQueueFull; Cancelled waiters refused by Close.
	Executed, Rejected, Cancelled int64
	// QueueLen is the number of callers waiting for a slot now,
	// QueuePeak its high watermark, QueueDepth its bound.
	QueueLen, QueuePeak, QueueDepth int
}

// Metrics snapshots the counters.
func (g *Gate) Metrics() PoolMetrics {
	g.mu.Lock()
	qlen, peak := len(g.waiters), g.peak
	g.mu.Unlock()
	return PoolMetrics{
		Executed:   g.executed.Load(),
		Rejected:   g.rejected.Load(),
		Cancelled:  g.cancelled.Load(),
		QueueLen:   qlen,
		QueuePeak:  peak,
		QueueDepth: g.depth,
	}
}

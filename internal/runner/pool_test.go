package runner

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hold occupies one of g's slots until the returned release func runs.
func hold(t *testing.T, g *Gate) (release func()) {
	t.Helper()
	started, block, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if err := g.Do(func() {
			close(started)
			<-block
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	return func() {
		close(block)
		<-done
	}
}

// waitQueue blocks until n callers wait for a slot of g.
func waitQueue(t *testing.T, g *Gate, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); g.Metrics().QueueLen != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d, want %d", g.Metrics().QueueLen, n)
		}
	}
}

// within runs f and fails the test if f has not returned after ten
// seconds, so a gate that loses a slot or never refuses fails instead
// of hanging.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked after 10s", what)
	}
}

// TestPoolExecutesAll: every caller's job runs, and never more than the
// slot count at once.
func TestPoolExecutesAll(t *testing.T) {
	g := NewGate(4, 100)
	var running, peak, n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Do(func() {
				now := running.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				time.Sleep(100 * time.Microsecond)
				running.Add(-1)
				n.Add(1)
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	within(t, "the callers", wg.Wait)
	g.Close()
	if got := n.Load(); got != 100 {
		t.Fatalf("executed %d of 100 jobs", got)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("%d jobs ran at once on 4 slots", p)
	}
	if m := g.Metrics(); m.Executed != 100 || m.Rejected != 0 || m.Cancelled != 0 || m.QueueLen != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestPoolQueueBound: with the only slot busy and depth callers
// waiting, the next caller is refused at once and its job never runs;
// the waiters take the freed slot in arrival order.
func TestPoolQueueBound(t *testing.T) {
	g := NewGate(1, 2)
	release := hold(t, g)

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Do(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}); err != nil {
				t.Error(err)
			}
		}()
		waitQueue(t, g, i)
	}
	var err error
	within(t, "the over-depth caller", func() { err = g.Do(func() { t.Error("the refused job ran") }) })
	if err != ErrQueueFull || !Refused(err) {
		t.Fatalf("over-depth Do: got %v, want ErrQueueFull", err)
	}
	release()
	within(t, "the waiters", wg.Wait)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("waiters ran in order %v, want [1 2]", order)
	}
	if m := g.Metrics(); m.Rejected != 1 || m.Executed != 3 || m.QueuePeak != 2 || m.QueueDepth != 2 {
		t.Fatalf("metrics %+v, want 1 rejected, 3 executed, queue peak 2 of 2", m)
	}
}

// TestPoolCloseCancelsQueued: Close refuses every waiter with
// ErrPoolClosed without running its job, and returns only once the
// running job has ended; later callers are refused too.
func TestPoolCloseCancelsQueued(t *testing.T) {
	g := NewGate(1, 8)
	release := hold(t, g)

	errs := make(chan error, 5)
	for i := 0; i < 5; i++ {
		go func() { errs <- g.Do(func() { t.Error("a waiter ran after Close") }) }()
	}
	waitQueue(t, g, 5)
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	for i := 0; i < 5; i++ {
		if err := <-errs; err != ErrPoolClosed || !Refused(err) {
			t.Errorf("waiter: got %v, want ErrPoolClosed", err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	within(t, "Close", func() { <-closed })
	if m := g.Metrics(); m.Cancelled != 5 || m.Executed != 1 || m.QueueLen != 0 {
		t.Errorf("metrics %+v, want 5 cancelled and 1 executed", m)
	}
	if err := g.Do(func() { t.Error("a job ran after Close") }); err != ErrPoolClosed {
		t.Fatalf("post-Close Do: got %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	g := NewGate(2, 0)
	g.Close()
	g.Close()
}

// TestGateNilRunsInline: a nil gate runs the job at once on the
// caller's goroutine.
func TestGateNilRunsInline(t *testing.T) {
	var g *Gate
	ran := false
	if err := g.Do(func() { ran = true }); err != nil || !ran {
		t.Fatalf("nil gate: err %v, ran %v", err, ran)
	}
}

// TestGatePanicFreesSlot: a panicking job frees its slot and the panic
// reaches the caller.
func TestGatePanicFreesSlot(t *testing.T) {
	g := NewGate(1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the caller")
			}
		}()
		g.Do(func() { panic("device bug") })
	}()
	done := make(chan error, 1)
	go func() { done <- g.Do(func() {}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the panicking job kept its slot")
	}
}

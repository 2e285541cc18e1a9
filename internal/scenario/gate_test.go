package scenario

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/runner"
)

// saturate fills a one-slot, one-waiter gate: its slot is busy and a
// filler waits for it, so every Do is refused until release.
func saturate(t *testing.T, g *runner.Gate) (release func()) {
	t.Helper()
	started, block := make(chan struct{}), make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		g.Do(func() {
			close(started)
			<-block
		})
		done <- struct{}{}
	}()
	<-started
	go func() {
		g.Do(func() {})
		done <- struct{}{}
	}()
	for i := 0; g.Metrics().QueueLen != 1; i++ {
		if i == 10_000 {
			t.Fatal("the filler never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(block)
		<-done
		<-done
	}
}

// TestSingleflightRefusedRunNotCached: a run the gate refuses fails
// with the refusal, leaves no entry and counts nowhere; once the gate
// has room the same spec runs (one miss) and succeeds.
func TestSingleflightRefusedRunNotCached(t *testing.T) {
	s := newTestStore(t, "")
	g := runner.NewGate(1, 1)
	s.SetGate(g)
	release := saturate(t, g)
	spec := accelSpec(t)
	if _, err := s.RunStats(spec); !errors.Is(err, runner.ErrQueueFull) {
		t.Fatalf("on a full gate: err %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m != (Metrics{}) {
		t.Errorf("a refused run counted: %+v", m)
	}
	if _, ok := s.runs.entries[spec.Digest()]; ok {
		t.Error("a refused run left its entry")
	}
	release()
	if _, err := s.RunStats(spec); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.RunMisses != 1 || m.RunHits != 0 {
		t.Errorf("after the release: %d misses, %d hits, want 1 and 0", m.RunMisses, m.RunHits)
	}
}

// TestCoalescedCallersShareRefusal: every caller that joined a refused
// compute gets the refusal, none of them takes out the fresh entry a
// later caller puts under the digest, whichever order their deletions
// and its creation land in, and no refusal counts as a miss. Each round
// refuses one compute that 63 joiners wait on. The joiners leave the
// entry's sync.Once one at a time, so their deletions trail the first
// one by tens of µs; a fresh caller computes as soon as the first
// refused caller has taken the entry out, and its result must stay
// cached.
func TestCoalescedCallersShareRefusal(t *testing.T) {
	var l level[int]
	const rounds, joiners = 500, 63
	type reply struct {
		v   int
		err error
	}
	wrong, lost, fresh, shared := 0, 0, int64(0), int64(0)
	for i := 0; i < rounds; i++ {
		d := Digest{byte(i), byte(i >> 8)}
		started, refuse := make(chan struct{}), make(chan struct{})
		replies := make(chan reply, 1+joiners)
		refused := func(compute func() (int, error)) {
			v, err := l.get(d, nil, compute, nil)
			replies <- reply{v, err}
		}
		go refused(func() (int, error) {
			close(started)
			<-refuse
			return 0, runner.ErrQueueFull
		})
		<-started
		l.mu.Lock()
		e := l.entries[d]
		l.mu.Unlock()
		// A joiner that arrives after the entry left the map computes
		// and is refused in turn, or joins the fresh entry.
		arrived := make(chan struct{}, joiners)
		for j := 0; j < joiners; j++ {
			go func() {
				arrived <- struct{}{}
				refused(func() (int, error) { return 0, runner.ErrQueueFull })
			}()
		}
		for j := 0; j < joiners; j++ {
			<-arrived
		}
		runtime.Gosched()
		close(refuse)
		for deadline := time.Now().Add(10 * time.Second); ; {
			l.mu.Lock()
			gone := l.entries[d] != e
			l.mu.Unlock()
			if gone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the refused entry never left the map")
			}
		}
		v, err := l.get(d, nil, func() (int, error) { return 1, nil }, nil)
		for j := 0; j < 1+joiners; j++ {
			switch r := <-replies; {
			case errors.Is(r.err, runner.ErrQueueFull):
			case r.err != nil || r.v != 1:
				wrong++
			default:
				// A late joiner that found the fresh entry.
				shared++
			}
		}
		switch {
		case errors.Is(err, runner.ErrQueueFull):
			// The fresh caller joined a late joiner's refused entry.
		case err != nil || v != 1:
			wrong++
		default:
			// It computed: now that every refused caller has returned,
			// its result must still be in the map.
			fresh++
			l.mu.Lock()
			if e := l.entries[d]; e == nil || e.val != 1 {
				lost++
			}
			l.mu.Unlock()
		}
	}
	if wrong > 0 || lost > 0 {
		t.Errorf("%d callers got neither the refusal nor the fresh result; of %d fresh results, %d were taken out of the map by a refused caller", wrong, fresh, lost)
	}
	if fresh == 0 {
		t.Error("no round cached a fresh result; the test proved nothing")
	}
	if m := l.misses.Load(); m != fresh {
		t.Errorf("%d misses for %d computed results: a refusal counted as a miss", m, fresh)
	}
	if h, c := l.hits.Load(), l.coalesced.Load(); h+c != shared {
		t.Errorf("%d hits + %d coalesced for %d callers served the fresh result: a refusal counted", h, c, shared)
	}
}

// TestSingleflightRefusedWarmupNotNegativeCached: a warmup the gate
// refuses is not cached as "unforkable": the family has no checkpoint
// entry afterwards, and once the gate has room its members warm once
// and fork. A fork the gate refuses is refused like a run: no fork and
// no miss counts, and the member forks once the gate has room again.
func TestSingleflightRefusedWarmupNotNegativeCached(t *testing.T) {
	s := newTestStore(t, "")
	g := runner.NewGate(1, 1)
	s.SetGate(g)
	release := saturate(t, g)
	lt := warmupHeavySpec(t, accel.LT, 2000)
	if _, err := s.RunStats(lt); !errors.Is(err, runner.ErrQueueFull) {
		t.Fatalf("on a full gate: err %v, want ErrQueueFull", err)
	}
	if _, ok := s.ckpts.entries[lt.warmupDigest()]; ok {
		t.Error("a refused warmup left its checkpoint entry")
	}
	release()
	for _, m := range []accel.Mode{accel.NLT, accel.LT} {
		if _, err := s.RunStats(warmupHeavySpec(t, m, 2000)); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if m := s.Metrics(); m.CkptWarmups != 1 || m.CkptForks != 2 || m.RunMisses != 2 {
		t.Errorf("%d warmups, %d forks, %d run misses; want 1, 2 and 2", m.CkptWarmups, m.CkptForks, m.RunMisses)
	}

	release = saturate(t, g)
	refused := g.Metrics().Rejected
	lnt := warmupHeavySpec(t, accel.LNT, 2000)
	if _, err := s.RunStats(lnt); !errors.Is(err, runner.ErrQueueFull) {
		t.Fatalf("a fork on a full gate: err %v, want ErrQueueFull", err)
	}
	if n := g.Metrics().Rejected - refused; n != 1 {
		t.Errorf("the refused fork asked the gate %d times, want once", n)
	}
	release()
	if _, err := s.RunStats(lnt); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CkptWarmups != 1 || m.CkptForks != 3 || m.RunMisses != 3 {
		t.Errorf("after the refused fork: %d warmups, %d forks, %d run misses; want 1, 3 and 3", m.CkptWarmups, m.CkptForks, m.RunMisses)
	}
}

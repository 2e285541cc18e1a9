package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// Store is a concurrency-safe, content-addressed cache of simulation
// results, keyed by canonical spec digests. It caches single runs
// (Spec → sim.Stats), full measurements (MeasureSpec → MeasureRecord)
// and recipes (Recipe → the measure digest its workload builds to) in
// memory always, and in a directory of versioned JSON blobs when one is
// configured. Identical specs requested concurrently execute once
// (singleflight); everyone else blocks on the first execution and
// shares its result.
//
// A nil *Store is valid and means "no caching": every method executes
// the work directly, so callers never branch on cache availability.
//
// The disk layer is strictly best-effort and can only produce misses,
// never wrong results or errors: a blob that is unreadable, corrupt,
// from another scheme version, or digest-mismatched is ignored and the
// run re-executes. The one error it raises is a stale recipe's, found
// when its record is gone and the rebuilt workload digests differently
// (see MeasureRecipe). Run errors are cached in memory for the process
// lifetime (the spec is deterministic, so retrying cannot help) but
// never written to disk. A gate refusal is not a result and is never
// cached (see SetGate).
type Store struct {
	dir        string
	noCkptFork bool
	// gate bounds the simulations running at once; nil runs each at
	// once on its caller's goroutine (see SetGate).
	gate *runner.Gate

	runs     level[sim.Stats]
	measures level[MeasureRecord]
	// recipes maps a sweep point's generator spec, core and cycle bound
	// to the measure digest its workload builds to (see recipe.go).
	recipes level[recipeValue]
	// ckpts singleflights each warmup family's shared checkpoint. The
	// value stays nil when the family is unforkable (negative-cached:
	// the warmup probe runs once, later members skip straight to direct
	// runs).
	ckpts level[*sim.Checkpoint]
	// statics caches static-model predictions by the same MeasureSpec
	// digest in its own namespace (see static.go).
	statics level[*staticmodel.Prediction]

	// Counters are atomics so Metrics can snapshot without a lock.
	ckptForks, bytesRead, bytesWritten atomic.Int64

	// build generates a recipe's workload; nil selects
	// workload.Spec.Build. Tests substitute a counting builder.
	build func(workload.Spec) (*workload.Workload, error)
}

// level is one singleflighted cache namespace: results by digest, plus
// the counters every namespace reports.
type level[T any] struct {
	mu      sync.Mutex
	entries map[Digest]*entry[T]

	hits, misses, diskHits, coalesced atomic.Int64
}

type entry[T any] struct {
	once sync.Once
	done atomic.Bool
	val  T
	err  error
}

// get returns the result cached under d, producing it once: from load
// (a disk hit) when it has the blob, else from compute (a miss), whose
// successful result goes to save. load and save are nil on a
// memory-only level. A panic while producing the result is recorded as
// the entry's error and re-raised: the panicking caller unwinds, every
// later caller gets the error, and nothing is written.
//
// A compute that a gate refused (runner.Refused) produced no result:
// every caller of the entry gets the refusal, nothing is counted, and
// the entry leaves the map so that the next caller computes afresh.
func (l *level[T]) get(d Digest, load func() (T, bool), compute func() (T, error), save func(T)) (T, error) {
	l.mu.Lock()
	if l.entries == nil {
		l.entries = make(map[Digest]*entry[T])
	}
	e, ok := l.entries[d]
	if !ok {
		e = &entry[T]{}
		l.entries[d] = e
	}
	l.mu.Unlock()

	// A pre-existing entry that has not completed means this caller is
	// about to block on someone else's in-flight execution — that is a
	// coalesced request, not a plain memory hit. Sampled before the
	// once.Do so the classification reflects what the caller actually
	// waited on.
	joined := ok && !e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("scenario: producing %s panicked: %v", d.Short(), p)
				e.done.Store(true)
				panic(p)
			}
		}()
		if load != nil {
			if v, ok := load(); ok {
				e.val = v
				l.diskHits.Add(1)
				return
			}
		}
		e.val, e.err = l.miss(compute)
		if e.err == nil && save != nil {
			save(e.val)
		}
	})
	e.done.Store(true)
	if runner.Refused(e.err) {
		// Every caller of the entry takes it out, the one that computed
		// and each that joined, whoever gets here first; a later caller
		// may already have put a fresh entry under d, which must stay.
		l.mu.Lock()
		if l.entries[d] == e {
			delete(l.entries, d)
		}
		l.mu.Unlock()
		return e.val, e.err
	}
	if !ran {
		if joined {
			l.coalesced.Add(1)
		} else {
			l.hits.Add(1)
		}
	}
	return e.val, e.err
}

// miss runs compute and counts it as a miss, a panicking one included,
// unless a gate refused it: a refused compute simulated nothing.
func (l *level[T]) miss(compute func() (T, error)) (v T, err error) {
	defer func() {
		if !runner.Refused(err) {
			l.misses.Add(1)
		}
	}()
	return compute()
}

// NewStore returns a store. dir == "" keeps the cache in memory only;
// otherwise dir is created if needed and used for persistent blobs.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("scenario: cache dir: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// DisableCheckpointForking makes every cache miss execute its full
// warmup prefix instead of forking off a shared warm checkpoint
// (cmd/figures -no-ckpt-fork; the byte-identity check in scripts/
// check.sh diffs the two paths). Call before issuing work.
func (s *Store) DisableCheckpointForking() {
	if s != nil {
		s.noCkptFork = true
	}
}

// SetGate makes every simulation the store runs — a direct run, a
// warmup, a fork off a warm checkpoint — take one of g's slots while it
// runs (cmd/scenariod sets one; a store without a gate runs each at
// once). A caller that waits on another caller's in-flight entry holds
// no slot. The invariant: no code holds a slot while it calls the
// store, so a slot is only ever waited for by code holding none, and
// the slots cannot deadlock. A refused simulation fails its store call
// with the refusal and caches nothing. Call before issuing work.
func (s *Store) SetGate(g *runner.Gate) {
	if s != nil {
		s.gate = g
	}
}

// RunStats executes the spec — or returns the cached sim.Stats of a
// digest-equal earlier run. An invalid spec, a device without a
// DeviceKey among them, is an error at every store state, nil included,
// and runs nothing. The returned Stats is a private copy; callers may
// mutate it freely.
func (s *Store) RunStats(spec Spec) (sim.Stats, error) {
	if err := spec.Validate(); err != nil {
		return sim.Stats{}, err
	}
	if s == nil {
		return spec.run()
	}
	d := spec.Digest()
	st, err := s.runs.get(d,
		func() (sim.Stats, bool) { return s.loadRunBlob(d) },
		func() (sim.Stats, error) { return s.computeRun(spec) },
		func(st sim.Stats) { s.saveRunBlob(d, st) })
	return st.Clone(), err
}

// Measure returns the cached MeasureRecord for the spec, or computes
// it once via compute. The compute closure typically issues its
// constituent runs through s.RunStats, so run-level deduplication
// applies even when the measure level misses. The spec must be valid
// (see MeasureSpec.Validate).
func (s *Store) Measure(spec MeasureSpec, compute func() (MeasureRecord, error)) (MeasureRecord, error) {
	if s == nil {
		return compute()
	}
	rec, err := s.measureAt(spec.Digest(), compute)
	return rec.Clone(), err
}

// measureAt returns the record cached under the measure digest d.
func (s *Store) measureAt(d Digest, compute func() (MeasureRecord, error)) (MeasureRecord, error) {
	return s.measures.get(d,
		func() (MeasureRecord, bool) { return s.loadMeasureBlob(d) },
		compute,
		func(rec MeasureRecord) { s.saveMeasureBlob(d, rec) })
}

// computeRun executes a cache-missed spec: through the warm-checkpoint
// fast path when its warmup family has a usable shared snapshot, with a
// direct full run otherwise. Both paths produce bit-identical Stats
// (the checkpoint differential suite in internal/sim enforces it), so
// the cached result is path-independent. Each simulation takes a gate
// slot only while it runs.
func (s *Store) computeRun(spec Spec) (st sim.Stats, err error) {
	if ck := s.warmCheckpoint(spec); ck != nil {
		ok := false
		if gerr := s.gate.Do(func() { st, err, ok = spec.resumeFrom(ck) }); gerr != nil {
			return sim.Stats{}, gerr
		}
		if ok {
			s.ckptForks.Add(1)
			return st, err
		}
	}
	if gerr := s.gate.Do(func() { st, err = spec.run() }); gerr != nil {
		return sim.Stats{}, gerr
	}
	return st, err
}

// warmCheckpoint returns the spec's shared warm checkpoint, running the
// warmup prefix (or loading its disk blob) on the family's first use.
// nil means "run directly": forking disabled, spec unforkable, the
// family probed unforkable earlier, or the gate refused the warmup,
// which leaves the family unprobed.
func (s *Store) warmCheckpoint(spec Spec) *sim.Checkpoint {
	if s.noCkptFork || !spec.forkable() {
		return nil
	}
	d := spec.warmupDigest()
	ck, _ := s.ckpts.get(d,
		func() (*sim.Checkpoint, bool) { return s.loadCkptBlob(d) },
		func() (ck *sim.Checkpoint, err error) {
			err = s.gate.Do(func() { ck = spec.warmup() })
			return ck, err
		},
		func(ck *sim.Checkpoint) {
			if ck != nil {
				s.saveCkptBlob(d, ck)
			}
		})
	return ck
}

// Metrics is a point-in-time snapshot of store activity. It is the one
// source of truth for cache observability: cmd/figures' stderr line and
// scenariod's /metrics endpoint both render this snapshot.
type Metrics struct {
	// Run-level counters. Hits are served from completed memory
	// entries, Coalesced joined an execution that was still in flight
	// (the singleflight dedup — under a multi-client daemon this is the
	// cross-client sharing), DiskHits loaded the blob directory, Misses
	// executed the simulator.
	RunHits, RunMisses, RunDiskHits, RunCoalesced int64
	// Measure-level counters, same meaning.
	MeasureHits, MeasureMisses, MeasureDiskHits, MeasureCoalesced int64
	// Recipe-level counters, same meaning: a hit or disk hit answers a
	// sweep point without building its workload, a miss builds it.
	RecipeHits, RecipeMisses, RecipeDiskHits, RecipeCoalesced int64
	// Checkpoint counters: Forks resumed from a shared warm snapshot,
	// Warmups executed a warmup prefix to produce (or probe for) one,
	// DiskHits loaded one from the blob directory, Coalesced waited on a
	// warmup another family member had in flight.
	CkptForks, CkptWarmups, CkptDiskHits, CkptCoalesced int64
	// Static-prediction counters (memory-only level, see
	// Store.StaticPrediction).
	StaticHits, StaticMisses, StaticCoalesced int64
	// BytesRead/BytesWritten count disk-blob traffic.
	BytesRead, BytesWritten int64
}

// Metrics snapshots the counters. Safe on a nil store (all zero).
func (s *Store) Metrics() Metrics {
	if s == nil {
		return Metrics{}
	}
	return Metrics{
		RunHits:          s.runs.hits.Load(),
		RunMisses:        s.runs.misses.Load(),
		RunDiskHits:      s.runs.diskHits.Load(),
		RunCoalesced:     s.runs.coalesced.Load(),
		MeasureHits:      s.measures.hits.Load(),
		MeasureMisses:    s.measures.misses.Load(),
		MeasureDiskHits:  s.measures.diskHits.Load(),
		MeasureCoalesced: s.measures.coalesced.Load(),
		RecipeHits:       s.recipes.hits.Load(),
		RecipeMisses:     s.recipes.misses.Load(),
		RecipeDiskHits:   s.recipes.diskHits.Load(),
		RecipeCoalesced:  s.recipes.coalesced.Load(),
		CkptForks:        s.ckptForks.Load(),
		CkptWarmups:      s.ckpts.misses.Load(),
		CkptDiskHits:     s.ckpts.diskHits.Load(),
		CkptCoalesced:    s.ckpts.coalesced.Load(),
		StaticHits:       s.statics.hits.Load(),
		StaticMisses:     s.statics.misses.Load(),
		StaticCoalesced:  s.statics.coalesced.Load(),
		BytesRead:        s.bytesRead.Load(),
		BytesWritten:     s.bytesWritten.Load(),
	}
}

// DedupRatio is the fraction of requests served without executing the
// simulator: (hits + coalesced + disk hits) / all requests, across the
// run and measure levels. Recipes are left out: a recipe miss measures
// through the measure level, which counts it already. Zero when nothing
// was requested.
func (m Metrics) DedupRatio() float64 {
	served := m.RunHits + m.RunCoalesced + m.RunDiskHits +
		m.MeasureHits + m.MeasureCoalesced + m.MeasureDiskHits
	total := served + m.RunMisses + m.MeasureMisses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Sub returns the counter-wise difference m - prev, for reporting the
// activity of one request phase against a running store (scenarioload
// samples /metrics before and after each phase).
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		RunHits:          m.RunHits - prev.RunHits,
		RunMisses:        m.RunMisses - prev.RunMisses,
		RunDiskHits:      m.RunDiskHits - prev.RunDiskHits,
		RunCoalesced:     m.RunCoalesced - prev.RunCoalesced,
		MeasureHits:      m.MeasureHits - prev.MeasureHits,
		MeasureMisses:    m.MeasureMisses - prev.MeasureMisses,
		MeasureDiskHits:  m.MeasureDiskHits - prev.MeasureDiskHits,
		MeasureCoalesced: m.MeasureCoalesced - prev.MeasureCoalesced,
		RecipeHits:       m.RecipeHits - prev.RecipeHits,
		RecipeMisses:     m.RecipeMisses - prev.RecipeMisses,
		RecipeDiskHits:   m.RecipeDiskHits - prev.RecipeDiskHits,
		RecipeCoalesced:  m.RecipeCoalesced - prev.RecipeCoalesced,
		CkptForks:        m.CkptForks - prev.CkptForks,
		CkptWarmups:      m.CkptWarmups - prev.CkptWarmups,
		CkptDiskHits:     m.CkptDiskHits - prev.CkptDiskHits,
		CkptCoalesced:    m.CkptCoalesced - prev.CkptCoalesced,
		StaticHits:       m.StaticHits - prev.StaticHits,
		StaticMisses:     m.StaticMisses - prev.StaticMisses,
		StaticCoalesced:  m.StaticCoalesced - prev.StaticCoalesced,
		BytesRead:        m.BytesRead - prev.BytesRead,
		BytesWritten:     m.BytesWritten - prev.BytesWritten,
	}
}

// String renders the one-line report cmd/figures prints to stderr.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"scenario store: runs %d hit / %d coalesced / %d disk / %d miss | measures %d hit / %d coalesced / %d disk / %d miss | recipes %d hit / %d coalesced / %d disk / %d miss | ckpt %d fork / %d warmup / %d coalesced / %d disk | static %d hit / %d coalesced / %d miss | %d B read, %d B written | dedup %.1f%%",
		m.RunHits, m.RunCoalesced, m.RunDiskHits, m.RunMisses,
		m.MeasureHits, m.MeasureCoalesced, m.MeasureDiskHits, m.MeasureMisses,
		m.RecipeHits, m.RecipeCoalesced, m.RecipeDiskHits, m.RecipeMisses,
		m.CkptForks, m.CkptWarmups, m.CkptCoalesced, m.CkptDiskHits,
		m.StaticHits, m.StaticCoalesced, m.StaticMisses,
		m.BytesRead, m.BytesWritten, 100*m.DedupRatio())
}

// diskBlob is the on-disk JSON envelope. Scheme and digest are
// verified on load; either mismatching turns the blob into a miss.
type diskBlob struct {
	Scheme  int            `json:"scheme"`
	Kind    string         `json:"kind"`
	Digest  string         `json:"digest"`
	Run     *sim.Stats     `json:"run,omitempty"`
	Measure *MeasureRecord `json:"measure,omitempty"`
	// Ckpt holds a sim.Checkpoint in its own binary wire format
	// (base64 inside the JSON envelope); the checkpoint codec's magic
	// and version header is verified again on decode.
	Ckpt   []byte      `json:"ckpt,omitempty"`
	Recipe *recipeBlob `json:"recipe,omitempty"`
}

// blobPath is the sharded location of one envelope: blobs spread over
// 256 subdirectories named by the first two hex digits of the digest.
// A warm fleet-serving store accumulates one file per distinct (kind,
// digest); a flat directory degrades on lookup and temp-file creation
// long before the cache itself is large (classic dirent scaling), so
// the digest prefix — uniform by construction, SHA-256 — spreads the
// load.
func (s *Store) blobPath(kind string, d Digest) string {
	h := d.String()
	return filepath.Join(s.dir, h[:2], kind+"-"+h+".json")
}

// loadBlob reads and verifies one envelope. Any failure is a miss.
func (s *Store) loadBlob(kind string, d Digest) (diskBlob, bool) {
	if s.dir == "" {
		return diskBlob{}, false
	}
	data, err := os.ReadFile(s.blobPath(kind, d))
	if err != nil {
		return diskBlob{}, false
	}
	var b diskBlob
	if json.Unmarshal(data, &b) != nil {
		return diskBlob{}, false
	}
	if b.Scheme != SchemeVersion || b.Kind != kind || b.Digest != d.String() {
		return diskBlob{}, false
	}
	s.bytesRead.Add(int64(len(data)))
	return b, true
}

// saveBlob writes one envelope via temp-file + rename so concurrent
// processes never observe partial blobs. The temp file lives in the
// destination shard directory so the rename stays within one
// filesystem directory (atomic everywhere). Failures are silently
// ignored: the disk layer is an optimization, not a requirement.
func (s *Store) saveBlob(kind string, d Digest, b diskBlob) {
	if s.dir == "" {
		return
	}
	b.Scheme = SchemeVersion
	b.Kind = kind
	b.Digest = d.String()
	data, err := json.Marshal(b)
	if err != nil {
		return
	}
	shard := filepath.Dir(s.blobPath(kind, d))
	if os.MkdirAll(shard, 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(shard, kind+"-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), s.blobPath(kind, d)) != nil {
		os.Remove(tmp.Name())
		return
	}
	s.bytesWritten.Add(int64(len(data)))
}

func (s *Store) loadRunBlob(d Digest) (sim.Stats, bool) {
	b, ok := s.loadBlob("run", d)
	if !ok || b.Run == nil {
		return sim.Stats{}, false
	}
	return *b.Run, true
}

func (s *Store) saveRunBlob(d Digest, st sim.Stats) {
	s.saveBlob("run", d, diskBlob{Run: &st})
}

// loadMeasureBlob rejects a record that does not hold one result per
// mode in accel.AllModes order, as the measurement writes it, so a
// reader's MeasureRecord.Mode never misses.
func (s *Store) loadMeasureBlob(d Digest) (MeasureRecord, bool) {
	b, ok := s.loadBlob("measure", d)
	if !ok || b.Measure == nil || len(b.Measure.Modes) != len(accel.AllModes) {
		return MeasureRecord{}, false
	}
	for i, m := range b.Measure.Modes {
		if m.Mode != accel.AllModes[i] {
			return MeasureRecord{}, false
		}
	}
	return *b.Measure, true
}

func (s *Store) saveMeasureBlob(d Digest, rec MeasureRecord) {
	s.saveBlob("measure", d, diskBlob{Measure: &rec})
}

func (s *Store) loadCkptBlob(d Digest) (*sim.Checkpoint, bool) {
	b, ok := s.loadBlob("ckpt", d)
	if !ok || b.Ckpt == nil {
		return nil, false
	}
	ck, err := sim.UnmarshalCheckpoint(b.Ckpt)
	if err != nil {
		return nil, false
	}
	return ck, true
}

func (s *Store) saveCkptBlob(d Digest, ck *sim.Checkpoint) {
	s.saveBlob("ckpt", d, diskBlob{Ckpt: ck.MarshalBinary()})
}

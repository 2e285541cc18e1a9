package mem

import "repro/internal/ckpt"

// Checkpoint walks for the timing hierarchy.
//
// The simulator's checkpoint layer (internal/sim.Checkpoint) encodes the
// hierarchy at a cycle boundary and later decodes it into a freshly built
// Hierarchy of the same configuration. Decoding is in place: it fills the
// levels NewHierarchy already wired, preserving the shared-L2 pointer
// topology (L1I and L1D chain to the same *Cache), and it fails when the
// frame's geometry (optional levels, line counts, TLB reach) differs from
// the hierarchy's.

// Least encoded sizes of one cache line, one MSHR fill and one resident
// TLB page.
var (
	lineBytes    = ckpt.WalkedLen(func(k *ckpt.Codec) { walkLine(k, new(cacheLine)) })
	fillBytes    = ckpt.WalkedLen(func(k *ckpt.Codec) { walkFill(k, new(inflight)) })
	tlbPageBytes = 2 * ckpt.WordBytes
)

// WalkState walks every level: L1I when present, L1D, L2, DRAM, then the
// DTLB and ITLB when present.
func (h *Hierarchy) WalkState(k *ckpt.Codec) {
	if present(k, "L1I", h.L1I != nil) {
		h.L1I.walk(k)
	}
	h.L1D.walk(k)
	h.L2.walk(k)
	h.DRAM.walk(k)
	if present(k, "DTLB", h.DTLB != nil) {
		h.DTLB.walk(k)
	}
	if present(k, "ITLB", h.ITLB != nil) {
		h.ITLB.walk(k)
	}
}

// present walks whether an optional level is enabled. Decoding fails
// when the frame disagrees with the hierarchy.
func present(k *ckpt.Codec, level string, has bool) bool {
	got := has
	k.Bool(&got)
	if got != has {
		k.Failf("mem: frame has %s %v, hierarchy %v", level, got, has)
		return false
	}
	return has
}

// walk walks the cache's mutable state: its LRU stamp, counters, every
// line in set-major order, and the in-flight fills in insertion order.
func (c *Cache) walk(k *ckpt.Codec) {
	k.U64(&c.stamp)
	walkCacheStats(k, &c.stats)
	lines := len(c.sets) * c.cfg.Ways
	if n := k.Count(lines, lineBytes); n != lines {
		k.Failf("mem: %s: frame has %d lines, cache holds %d", c.cfg.Name, n, lines)
		return
	}
	for _, set := range c.sets {
		for w := range set {
			walkLine(k, &set[w])
		}
	}
	ckpt.Sized(k, &c.fills, fillBytes)
	for i := range c.fills {
		walkFill(k, &c.fills[i])
	}
}

func walkCacheStats(k *ckpt.Codec, s *CacheStats) {
	k.U64(&s.Accesses)
	k.U64(&s.Hits)
	k.U64(&s.Misses)
	k.U64(&s.Writebacks)
	k.U64(&s.MSHRMerges)
	k.U64(&s.MSHRStalls)
	k.U64(&s.Prefetches)
	k.U64(&s.PrefetchHits)
}

func walkLine(k *ckpt.Codec, l *cacheLine) {
	k.U64(&l.tag)
	k.Bool(&l.valid)
	k.Bool(&l.dirty)
	k.Bool(&l.prefetched)
	k.U64(&l.lru)
}

func walkFill(k *ckpt.Codec, f *inflight) {
	k.U64(&f.lineAddr)
	k.I64(&f.done)
}

// walk walks the DRAM channel's busy-until cycle and counters.
func (d *DRAM) walk(k *ckpt.Codec) {
	k.I64(&d.nextFree)
	k.U64(&d.stats.Reads)
	k.U64(&d.stats.Writes)
	k.I64(&d.stats.BusyCycles)
}

// walk walks the TLB's stamp, page walker, counters and resident pages
// in ascending page order. Decoding fails when the frame holds more
// pages than the TLB has entries.
func (t *TLB) walk(k *ckpt.Codec) {
	k.U64(&t.stamp)
	k.I64(&t.walkEnd)
	k.U64(&t.stats.Accesses)
	k.U64(&t.stats.Misses)
	ckpt.Map(k, &t.pages, tlbPageBytes, (*ckpt.Codec).U64)
	if len(t.pages) > t.cfg.Entries {
		k.Failf("mem: frame has %d TLB pages, TLB holds %d", len(t.pages), t.cfg.Entries)
	}
}

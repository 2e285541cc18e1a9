// Fixture for R8's component audits. Posed as a package under
// internal/mem, it defines a local stand-in for CacheStats and a cache
// whose checkpoint walk forgets PrefetchHits: a counter that nobody
// walks silently zeroes on every resume. Any function with a
// *ckpt.Codec parameter is a consumer, methods and plain functions alike.
package fixturewalk

import "repro/internal/ckpt"

type CacheStats struct {
	Accesses     uint64 // walked by the method: fine
	Hits         uint64 // walked by the helper: fine
	PrefetchHits uint64 // never walked -> reported
}

type Cache struct {
	stamp uint64
	stats CacheStats
}

// walk is the first consumer declaration, so the diagnostic anchors here.
func (c *Cache) walk(k *ckpt.Codec) { // want:R8
	k.U64(&c.stamp)
	k.U64(&c.stats.Accesses)
	walkHits(k, &c.stats)
}

func walkHits(k *ckpt.Codec, s *CacheStats) { k.U64(&s.Hits) }

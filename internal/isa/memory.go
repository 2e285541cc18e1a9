package isa

import "repro/internal/ckpt"

// Memory is the functional (architectural) memory image shared by the
// interpreter and the simulator. It is a sparse, paged store of 8-byte words
// over a 64-bit byte address space. Reads of untouched memory return zero.
//
// Memory holds architectural state only; timing (caches, DRAM) is modeled
// separately in internal/mem. Addresses are byte addresses but storage is at
// word granularity: accesses use the word containing the address, so callers
// should keep 8-byte alignment for predictable overlap semantics.
type Memory struct {
	pages map[uint64]*page

	// Reads and Writes count functional word accesses (useful in tests).
	Reads  uint64
	Writes uint64
}

const (
	pageWords = 512 // 4 KiB pages
	pageShift = 12
)

type page [pageWords]uint64

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func wordIndex(addr uint64) (pageID uint64, idx int) {
	return addr >> pageShift, int((addr >> 3) & (pageWords - 1))
}

// Load returns the 8-byte word containing byte address addr.
func (m *Memory) Load(addr uint64) uint64 {
	m.Reads++
	pid, idx := wordIndex(addr)
	p := m.pages[pid]
	if p == nil {
		return 0
	}
	return p[idx]
}

// Store writes the 8-byte word containing byte address addr.
func (m *Memory) Store(addr uint64, val uint64) {
	m.Writes++
	pid, idx := wordIndex(addr)
	p := m.pages[pid]
	if p == nil {
		p = new(page)
		m.pages[pid] = p
	}
	p[idx] = val
}

// LoadFloat returns the float64 stored at addr.
func (m *Memory) LoadFloat(addr uint64) float64 { return fromBits(m.Load(addr)) }

// StoreFloat writes a float64 at addr.
func (m *Memory) StoreFloat(addr uint64, v float64) { m.Store(addr, toBits(v)) }

// Clone returns a deep copy of the memory image (access counters reset).
// It is used by tests that compare interpreter and simulator final states
// starting from identical initial images.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for pid, p := range m.pages {
		cp := *p
		c.pages[pid] = &cp
	}
	return c
}

// WalkState walks the memory image through the checkpoint codec: the
// access counters (unlike Clone, which resets them, a resume must
// reproduce them), then each resident page in ascending page order.
// Decoding replaces the image.
func (m *Memory) WalkState(k *ckpt.Codec) {
	k.U64(&m.Reads)
	k.U64(&m.Writes)
	ckpt.Map(k, &m.pages, ckpt.WordBytes*(1+pageWords), func(k *ckpt.Codec, p **page) {
		if *p == nil {
			*p = new(page)
		}
		k.Words((*p)[:])
	})
}

// Equal reports whether two memory images hold identical word contents.
// Zero-filled pages are treated the same as absent pages.
func (m *Memory) Equal(o *Memory) bool {
	return m.contains(o) && o.contains(m)
}

// contains reports whether every nonzero word of o matches m.
func (m *Memory) contains(o *Memory) bool {
	for pid, op := range o.pages {
		mp := m.pages[pid]
		for i, w := range op {
			var mw uint64
			if mp != nil {
				mw = mp[i]
			}
			if w != mw {
				return false
			}
		}
	}
	return true
}

// Footprint returns the number of resident pages (diagnostics).
func (m *Memory) Footprint() int { return len(m.pages) }

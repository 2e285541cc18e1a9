package sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Binary checkpoint codec: fixed-width little-endian fields, length-prefixed
// slices and strings, behind a magic and version header. One codec walks
// each persisted type once in either direction — encoding appends every
// field it visits, decoding overwrites it from the input — so no field can
// be written one way and forgotten the other. The walk covers every field
// of the Checkpoint, exported identity fields and unexported slab internals
// alike, so decode(encode(ck)) is deeply equal to ck; and decoding accepts
// only canonical bytes, so every blob that decodes re-encodes to itself.
// simlint R8 audits the walk for exported-field exhaustiveness.

const (
	ckptMagic = 0x74636b70_73696d31 // "tckp" "sim1"
	// ckptVersion bumps whenever the wire layout changes; a blob of any
	// other version fails to decode, which the scenario store treats as a
	// miss.
	// v2: device-engine statistics (Stats.AccelPhases,
	// Stats.AccelOverlapCycles) joined the stats frame.
	// v3: the config section is Config.AppendCanonical, the scenario
	// digest's encoding, whose flags are words rather than bytes.
	ckptVersion = 3
)

// wordBytes is the width of every fixed-width field but the checkpoint's
// one-byte ones (its flags, opcodes, registers and ROB entry states).
const wordBytes = 8

// codec walks persisted values. Encoding appends to buf. Decoding reads
// buf from off, overwrites each field it walks, and keeps the first error,
// after which nothing is left to read and every further field decodes as
// zero. Reading by offset leaves the buffer's pointer alone, so a read
// pays no GC write barrier.
type codec struct {
	buf []byte
	off int
	dec bool
	err error
}

func (k *codec) fail(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf("sim: checkpoint decode: "+format, args...)
	}
	k.off = len(k.buf)
}

// left is the number of bytes not yet decoded.
func (k *codec) left() int { return len(k.buf) - k.off }

// next consumes one word.
func (k *codec) next() uint64 {
	if k.left() < wordBytes {
		k.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(k.buf[k.off:])
	k.off += wordBytes
	return v
}

// take consumes n bytes, or returns nil when fewer are left.
func (k *codec) take(n int) []byte {
	if k.left() < n {
		k.fail("truncated")
		return nil
	}
	k.off += n
	return k.buf[k.off-n : k.off]
}

// put appends one word. Appending to k.buf in place, rather than through
// binary.AppendUint64's returned slice, stores only the new length, so an
// append that fits pays no GC write barrier.
func (k *codec) put(v uint64) {
	k.buf = append(k.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (k *codec) u64(v *uint64) {
	if k.dec {
		*v = k.next()
	} else {
		k.put(*v)
	}
}

func (k *codec) i64(v *int64) {
	if k.dec {
		*v = int64(k.next())
	} else {
		k.put(uint64(*v))
	}
}

func (k *codec) int(v *int) {
	if k.dec {
		*v = int(int64(k.next()))
	} else {
		k.put(uint64(*v))
	}
}

func (k *codec) u8(v *uint8) {
	if !k.dec {
		k.buf = append(k.buf, *v)
	} else if b := k.take(1); b != nil {
		*v = b[0]
	}
}

// bool walks a one-byte flag.
func (k *codec) bool(v *bool) {
	if k.dec {
		if b := k.take(1); b != nil {
			*v = k.truth(uint64(b[0]))
		}
		return
	}
	b := uint8(0)
	if *v {
		b = 1
	}
	k.buf = append(k.buf, b)
}

// truth decodes a flag, accepting only 0 and 1 so that each value has
// one encoding.
func (k *codec) truth(b uint64) bool {
	if b > 1 {
		k.fail("flag %d is neither 0 nor 1", b)
	}
	return b == 1
}

// flag walks a configuration flag as a word of 0 or 1.
func (k *codec) flag(v *bool) {
	w := uint64(0)
	if *v {
		w = 1
	}
	k.u64(&w)
	if k.dec {
		*v = k.truth(w)
	}
}

// narrow walks an integer held in a type narrower than its word. Decoding
// rejects a word the type cannot hold rather than truncate it.
func narrow[T ~uint8 | ~int32](k *codec, v *T) {
	w := int64(*v)
	k.i64(&w)
	if k.dec {
		if int64(T(w)) != w {
			k.fail("word %d out of range", w)
		}
		*v = T(w)
	}
}

// count walks a slice length. Decoding bounds it by how many elements of
// at least min encoded bytes the rest of the input can hold, so a forged
// count fails before anything is allocated for it.
func (k *codec) count(n, min int) int {
	k.int(&n)
	if k.dec && (n < 0 || n > k.left()/min) {
		k.fail("implausible length %d with %d bytes left", n, k.left())
		return 0
	}
	return n
}

// sized walks the length of *s. Decoding replaces *s with that many zero
// elements, or nil for none, for the caller's loop to fill.
func sized[T any](k *codec, s *[]T, min int) {
	if n := k.count(len(*s), min); k.dec && n > 0 {
		*s = make([]T, n)
	}
}

// present walks whether *p is set. Decoding allocates *p when it is.
func present[T any](k *codec, p **T) bool {
	has := *p != nil
	k.bool(&has)
	if has && k.dec {
		*p = new(T)
	}
	return has
}

func (k *codec) str(s *string) {
	n := k.count(len(*s), 1)
	if k.dec {
		*s = string(k.take(n))
	} else {
		k.buf = append(k.buf, *s...)
	}
}

func (k *codec) bytes(b *[]byte) {
	n := k.count(len(*b), 1)
	if k.dec {
		*b = append([]byte(nil), k.take(n)...)
	} else {
		k.buf = append(k.buf, *b...)
	}
}

func (k *codec) int64s(s *[]int64) {
	sized(k, s, wordBytes)
	for i := range *s {
		k.i64(&(*s)[i])
	}
}

// Minimum encoded sizes of slice elements, measured by walking a zero
// element, bound the counts a decoder accepts.
var (
	robMin     = walkedLen(func(k *codec) { k.robHot(new(robHot)); k.robEntry(new(robEntry)) })
	storeMin   = walkedLen(func(k *codec) { k.store(new(isa.AccelStore)) })
	fetchedMin = walkedLen(func(k *codec) { k.fetched(new(fetchedInst)) })
	compMin    = walkedLen(func(k *codec) { k.comp(new(compRecord)) })
	eventMin   = walkedLen(func(k *codec) { k.accelEvent(new(AccelEvent)) })
	pipeMin    = walkedLen(func(k *codec) { k.pipeEvent(new(PipeEvent)) })
	pageMin    = walkedLen(func(k *codec) { k.page(new(isa.PageState)) })
	lineMin    = walkedLen(func(k *codec) { k.line(new(mem.CacheLineState)) })
	fillMin    = walkedLen(func(k *codec) { k.fill(new(mem.FillState)) })
	tlbPageMin = walkedLen(func(k *codec) { k.tlbPage(new(mem.TLBPageState)) })
	pairMin    = walkedLen(func(k *codec) { k.pair(new(bpred.PredictorPair)) })
)

func walkedLen(walk func(*codec)) int {
	var k codec
	walk(&k)
	return len(k.buf)
}

// MarshalBinary serializes the checkpoint.
func (ck *Checkpoint) MarshalBinary() []byte {
	var k codec
	k.checkpoint(ck)
	return k.buf
}

// UnmarshalCheckpoint deserializes a checkpoint produced by MarshalBinary.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	k := codec{buf: data, dec: true}
	ck := &Checkpoint{}
	k.checkpoint(ck)
	if k.left() != 0 {
		k.fail("%d trailing bytes", k.left())
	}
	if k.err != nil {
		return nil, k.err
	}
	return ck, nil
}

func (k *codec) checkpoint(ck *Checkpoint) {
	magic, version := uint64(ckptMagic), uint64(ckptVersion)
	k.u64(&magic)
	k.u64(&version)
	switch {
	case magic != ckptMagic:
		k.fail("bad magic %#x", magic)
	case version != ckptVersion:
		k.fail("version %d, want %d", version, ckptVersion)
	}
	k.config(&ck.Config)
	k.u64(&ck.ProgHash)
	k.i64(&ck.Now)
	k.u64(&ck.Seq)
	k.bool(&ck.Halted)
	k.i64(&ck.LastCommitCycle)
	k.bool(&ck.SawAccelFetch)
	k.bool(&ck.SuffixFree)
	for i := range ck.ARF {
		k.u64(&ck.ARF[i])
	}
	for i := range ck.Rename {
		k.bool(&ck.Rename[i].Valid)
		k.u64(&ck.Rename[i].Seq)
	}
	// The ROB is one count, then every hot entry, then every cold one.
	if n := k.count(len(ck.ROBHot), robMin); k.dec && n > 0 {
		ck.ROBHot = make([]robHot, n)
		ck.ROBCold = make([]robEntry, n)
	}
	for i := range ck.ROBHot {
		k.robHot(&ck.ROBHot[i])
	}
	for i := range ck.ROBCold {
		k.robEntry(&ck.ROBCold[i])
	}
	sized(k, &ck.Arena, storeMin)
	for i := range ck.Arena {
		k.store(&ck.Arena[i])
	}
	k.int(&ck.LiveStores)
	k.int(&ck.IQCount)
	k.int(&ck.LSQCount)
	k.int(&ck.IssuedCount)
	sized(k, &ck.FetchQ, fetchedMin)
	for i := range ck.FetchQ {
		k.fetched(&ck.FetchQ[i])
	}
	k.int(&ck.FetchPC)
	k.i64(&ck.FetchResumeAt)
	k.bool(&ck.FetchStopped)
	k.i64(&ck.CurFetchLine)
	k.u64(&ck.BarrierSeq)
	k.bool(&ck.BarrierActive)
	for cl := range ck.FreeUnits {
		k.int64s(&ck.FreeUnits[cl])
	}
	k.int64s(&ck.Ports)
	k.i64(&ck.TCABusyUntil)
	sized(k, &ck.Pend, compMin)
	for i := range ck.Pend {
		k.comp(&ck.Pend[i])
	}
	k.stats(&ck.Stats)
	k.memState(&ck.Mem)
	k.hierState(&ck.Hier)
	k.predState(&ck.Pred)
	has := ck.DeviceState != nil
	k.bool(&has)
	if has {
		k.bytes(&ck.DeviceState)
		if ck.DeviceState == nil {
			ck.DeviceState = []byte{} // an empty frame is still a frame
		}
	}
	k.bool(&ck.DevicePristine)
}

// config walks the fields Config.Canonical keeps, every one a word; Name,
// NoFastForward and the cache Names are not part of it. Checkpoint holds
// a canonical config, so its config section is Config.AppendCanonical.
func (k *codec) config(c *Config) {
	k.int(&c.FetchWidth)
	k.int(&c.DispatchWidth)
	k.int(&c.IssueWidth)
	k.int(&c.CommitWidth)
	k.int(&c.ROBSize)
	k.int(&c.IQSize)
	k.int(&c.LSQSize)
	k.int(&c.FrontEndDepth)
	k.int(&c.CommitDelay)
	k.int(&c.IntALUs)
	k.int(&c.IntMuls)
	k.int(&c.FPUs)
	k.int(&c.MemPorts)
	k.int(&c.IntMulLatency)
	k.int(&c.IntDivLatency)
	k.int(&c.FPAddLatency)
	k.int(&c.FPMulLatency)
	k.int(&c.FMALatency)
	k.int(&c.FPDivLatency)
	narrow(k, &c.Mode)
	k.flag(&c.PartialSpeculation)
	k.flag(&c.ConservativeLoadOrdering)
	k.str(&c.Predictor.Kind)
	k.int(&c.Predictor.TableBits)
	k.int(&c.Predictor.HistBits)
	k.cacheConfig(&c.Memory.L1I)
	k.cacheConfig(&c.Memory.L1D)
	k.cacheConfig(&c.Memory.L2)
	k.int(&c.Memory.DRAM.Latency)
	k.int(&c.Memory.DRAM.CyclesPerLine)
	k.tlbConfig(&c.Memory.DTLB)
	k.tlbConfig(&c.Memory.ITLB)
	k.flag(&c.RecordAccelEvents)
	k.int(&c.PipeTraceLimit)
}

func (k *codec) cacheConfig(c *mem.CacheConfig) {
	k.int(&c.SizeBytes)
	k.int(&c.Ways)
	k.int(&c.LineBytes)
	k.int(&c.HitLatency)
	k.int(&c.MSHRs)
	k.flag(&c.NextLinePrefetch)
}

func (k *codec) tlbConfig(c *mem.TLBConfig) {
	k.int(&c.Entries)
	k.int(&c.PageBits)
	k.int(&c.WalkLatency)
}

func (k *codec) stats(s *Stats) {
	k.i64(&s.Cycles)
	k.u64(&s.Committed)
	k.u64(&s.Fetched)
	k.u64(&s.Squashed)
	k.u64(&s.Branches)
	k.u64(&s.Mispredicts)
	k.u64(&s.Loads)
	k.u64(&s.Stores)
	k.u64(&s.LoadsForwarded)
	k.u64(&s.AccelCommitted)
	k.u64(&s.AccelSquashed)
	k.i64(&s.AccelBusyCycles)
	k.u64(&s.AccelMemOps)
	k.i64(&s.AccelDrainWait)
	k.i64(&s.AccelConfidenceWait)
	k.u64(&s.AccelPhases)
	k.i64(&s.AccelOverlapCycles)
	k.i64(&s.DispatchStalls.Barrier)
	k.i64(&s.DispatchStalls.ROBFull)
	k.i64(&s.DispatchStalls.IQFull)
	k.i64(&s.DispatchStalls.LSQFull)
	k.i64(&s.DispatchStalls.FrontEnd)
	k.i64(&s.ROBOccupancySum)
	k.i64(&s.FastForwardedCycles)
	k.i64(&s.FastForwardJumps)
	sized(k, &s.AccelEvents, eventMin)
	for i := range s.AccelEvents {
		k.accelEvent(&s.AccelEvents[i])
	}
	sized(k, &s.PipeTrace, pipeMin)
	for i := range s.PipeTrace {
		k.pipeEvent(&s.PipeTrace[i])
	}
}

func (k *codec) accelEvent(ev *AccelEvent) {
	k.u64(&ev.Seq)
	k.i64(&ev.Dispatch)
	k.i64(&ev.Start)
	k.i64(&ev.Done)
	k.i64(&ev.Commit)
}

func (k *codec) pipeEvent(ev *PipeEvent) {
	k.u64(&ev.Seq)
	k.int(&ev.PC)
	k.str(&ev.Text)
	k.i64(&ev.Dispatch)
	k.i64(&ev.Issue)
	k.i64(&ev.Complete)
	k.i64(&ev.Commit)
	k.bool(&ev.Accel)
}

func (k *codec) instruction(in *isa.Instruction) {
	k.u8((*uint8)(&in.Op))
	k.u8((*uint8)(&in.Dst))
	k.u8((*uint8)(&in.Src1))
	k.u8((*uint8)(&in.Src2))
	k.u8((*uint8)(&in.Src3))
	k.i64(&in.Imm)
}

func (k *codec) robHot(h *robHot) {
	k.u64(&h.seq)
	k.i64(&h.readyCycle)
	k.u8((*uint8)(&h.op))
	k.u8((*uint8)(&h.state))
	k.u8(&h.pendMask)
	narrow(k, &h.wakeUses)
}

func (k *codec) robEntry(c *robEntry) {
	k.int(&c.pc)
	k.instruction(&c.in)
	k.i64(&c.dispatchCycle)
	k.i64(&c.issueCycle)
	for s := range c.srcs {
		k.u64(&c.srcs[s].producer)
		k.u64(&c.srcs[s].value)
	}
	k.u64(&c.val)
	k.bool(&c.predTaken)
	k.bool(&c.predConfident)
	k.bool(&c.actualTaken)
	k.int(&c.nextPC)
	k.bool(&c.mispredict)
	k.bool(&c.addrKnown)
	k.u64(&c.addr)
	k.u64(&c.storeData)
	k.bool(&c.forwarded)
	k.bool(&c.accelStarted)
	k.bool(&c.accelHasMark)
	k.int(&c.accelMark)
	k.int(&c.storeOff)
	k.int(&c.storeCount)
	k.int(&c.accelMemOps)
	k.i64(&c.accelStart)
	k.i64(&c.accelHeld)
}

func (k *codec) store(st *isa.AccelStore) {
	k.u64(&st.Addr)
	k.u64(&st.Data)
}

func (k *codec) fetched(f *fetchedInst) {
	k.int(&f.pc)
	k.instruction(&f.in)
	k.bool(&f.predTaken)
	k.bool(&f.predConfident)
	k.i64(&f.availAt)
}

func (k *codec) comp(r *compRecord) {
	k.i64(&r.cycle)
	k.u64(&r.seq)
}

func (k *codec) memState(s *isa.MemoryState) {
	k.u64(&s.Reads)
	k.u64(&s.Writes)
	sized(k, &s.Pages, pageMin)
	for i := range s.Pages {
		k.page(&s.Pages[i])
	}
}

func (k *codec) page(p *isa.PageState) {
	k.u64(&p.ID)
	for i := range p.Data {
		k.u64(&p.Data[i])
	}
}

func (k *codec) cacheState(s *mem.CacheState) {
	k.u64(&s.Stamp)
	k.u64(&s.Stats.Accesses)
	k.u64(&s.Stats.Hits)
	k.u64(&s.Stats.Misses)
	k.u64(&s.Stats.Writebacks)
	k.u64(&s.Stats.MSHRMerges)
	k.u64(&s.Stats.MSHRStalls)
	k.u64(&s.Stats.Prefetches)
	k.u64(&s.Stats.PrefetchHits)
	sized(k, &s.Lines, lineMin)
	for i := range s.Lines {
		k.line(&s.Lines[i])
	}
	sized(k, &s.Fills, fillMin)
	for i := range s.Fills {
		k.fill(&s.Fills[i])
	}
}

func (k *codec) line(ln *mem.CacheLineState) {
	k.u64(&ln.Tag)
	k.bool(&ln.Valid)
	k.bool(&ln.Dirty)
	k.bool(&ln.Prefetched)
	k.u64(&ln.LRU)
}

func (k *codec) fill(f *mem.FillState) {
	k.u64(&f.LineAddr)
	k.i64(&f.Done)
}

func (k *codec) tlbState(s *mem.TLBState) {
	k.u64(&s.Stamp)
	k.i64(&s.WalkEnd)
	k.u64(&s.Stats.Accesses)
	k.u64(&s.Stats.Misses)
	sized(k, &s.Pages, tlbPageMin)
	for i := range s.Pages {
		k.tlbPage(&s.Pages[i])
	}
}

func (k *codec) tlbPage(p *mem.TLBPageState) {
	k.u64(&p.Page)
	k.u64(&p.Stamp)
}

func (k *codec) hierState(s *mem.HierarchyState) {
	if present(k, &s.L1I) {
		k.cacheState(s.L1I)
	}
	k.cacheState(&s.L1D)
	k.cacheState(&s.L2)
	k.i64(&s.DRAM.NextFree)
	k.u64(&s.DRAM.Stats.Reads)
	k.u64(&s.DRAM.Stats.Writes)
	k.i64(&s.DRAM.Stats.BusyCycles)
	if present(k, &s.DTLB) {
		k.tlbState(s.DTLB)
	}
	if present(k, &s.ITLB) {
		k.tlbState(s.ITLB)
	}
}

func (k *codec) predState(s *bpred.State) {
	k.str(&s.Kind)
	k.u64(&s.History)
	k.bytes(&s.Table)
	sized(k, &s.Pairs, pairMin)
	for i := range s.Pairs {
		k.pair(&s.Pairs[i])
	}
}

func (k *codec) pair(p *bpred.PredictorPair) {
	k.u64(&p.PC)
	k.bool(&p.Taken)
}

package sim

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Binary checkpoint codec: one walk per persisted type over the
// primitives of internal/ckpt, behind a magic and version header. The walk
// covers every core-level field of the Checkpoint, exported identity
// fields and unexported slab internals alike, so decode(encode(ck)) is
// deeply equal to ck. The memory image, the hierarchy, the predictor and
// the device are frames their own walks wrote; this codec carries them
// as length-prefixed bytes and restoreFrom decodes them. simlint R8
// audits the walk for exported-field exhaustiveness.

const (
	ckptMagic = 0x74636b70_73696d31 // "tckp" "sim1"
	// ckptVersion bumps whenever the wire layout changes; a blob of any
	// other version fails to decode, which the scenario store treats as a
	// miss.
	// v2: device-engine statistics (Stats.AccelPhases,
	// Stats.AccelOverlapCycles) joined the stats frame.
	// v3: the config section is Config.AppendCanonical, the scenario
	// digest's encoding, whose flags are words rather than bytes.
	// v4: the memory, hierarchy and predictor sections are frames their
	// components write, each behind a length word.
	ckptVersion = 4
)

// Minimum encoded sizes of slice elements, measured by walking a zero
// element, bound the counts a decoder accepts.
var (
	robMin     = ckpt.WalkedLen(func(k *ckpt.Codec) { walkROBHot(k, new(robHot)); walkROBEntry(k, new(robEntry)) })
	storeMin   = ckpt.WalkedLen(func(k *ckpt.Codec) { walkStore(k, new(isa.AccelStore)) })
	fetchedMin = ckpt.WalkedLen(func(k *ckpt.Codec) { walkFetched(k, new(fetchedInst)) })
	compMin    = ckpt.WalkedLen(func(k *ckpt.Codec) { walkComp(k, new(compRecord)) })
	eventMin   = ckpt.WalkedLen(func(k *ckpt.Codec) { walkAccelEvent(k, new(AccelEvent)) })
	pipeMin    = ckpt.WalkedLen(func(k *ckpt.Codec) { walkPipeEvent(k, new(PipeEvent)) })
)

// MarshalBinary serializes the checkpoint.
func (ck *Checkpoint) MarshalBinary() []byte {
	k := ckpt.Encoder(nil)
	walkCheckpoint(&k, ck)
	return k.Encoded()
}

// UnmarshalCheckpoint deserializes a checkpoint produced by MarshalBinary.
// The component frames stay opaque until a resume decodes them.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := ckpt.Decode(data, func(k *ckpt.Codec) { walkCheckpoint(k, ck) }); err != nil {
		return nil, fmt.Errorf("sim: checkpoint decode: %w", err)
	}
	return ck, nil
}

func walkCheckpoint(k *ckpt.Codec, ck *Checkpoint) {
	magic, version := uint64(ckptMagic), uint64(ckptVersion)
	k.U64(&magic)
	k.U64(&version)
	switch {
	case magic != ckptMagic:
		k.Failf("bad magic %#x", magic)
	case version != ckptVersion:
		k.Failf("version %d, want %d", version, ckptVersion)
	}
	walkConfig(k, &ck.Config)
	k.U64(&ck.ProgHash)
	k.I64(&ck.Now)
	k.U64(&ck.Seq)
	k.Bool(&ck.Halted)
	k.I64(&ck.LastCommitCycle)
	k.Bool(&ck.SawAccelFetch)
	k.Bool(&ck.SuffixFree)
	for i := range ck.ARF {
		k.U64(&ck.ARF[i])
	}
	for i := range ck.Rename {
		k.Bool(&ck.Rename[i].Valid)
		k.U64(&ck.Rename[i].Seq)
	}
	// The ROB is one count, then every hot entry, then every cold one.
	if n := k.Count(len(ck.ROBHot), robMin); k.Decoding() && n > 0 {
		ck.ROBHot = make([]robHot, n)
		ck.ROBCold = make([]robEntry, n)
	}
	for i := range ck.ROBHot {
		walkROBHot(k, &ck.ROBHot[i])
	}
	for i := range ck.ROBCold {
		walkROBEntry(k, &ck.ROBCold[i])
	}
	ckpt.Sized(k, &ck.Arena, storeMin)
	for i := range ck.Arena {
		walkStore(k, &ck.Arena[i])
	}
	k.Int(&ck.LiveStores)
	k.Int(&ck.IQCount)
	k.Int(&ck.LSQCount)
	k.Int(&ck.IssuedCount)
	ckpt.Sized(k, &ck.FetchQ, fetchedMin)
	for i := range ck.FetchQ {
		walkFetched(k, &ck.FetchQ[i])
	}
	k.Int(&ck.FetchPC)
	k.I64(&ck.FetchResumeAt)
	k.Bool(&ck.FetchStopped)
	k.I64(&ck.CurFetchLine)
	k.U64(&ck.BarrierSeq)
	k.Bool(&ck.BarrierActive)
	for cl := range ck.FreeUnits {
		walkInt64s(k, &ck.FreeUnits[cl])
	}
	walkInt64s(k, &ck.Ports)
	k.I64(&ck.TCABusyUntil)
	ckpt.Sized(k, &ck.Pend, compMin)
	for i := range ck.Pend {
		walkComp(k, &ck.Pend[i])
	}
	walkStats(k, &ck.Stats)
	k.Bytes(&ck.Mem)
	k.Bytes(&ck.Hier)
	k.Bytes(&ck.Pred)
	has := ck.DeviceState != nil
	k.Bool(&has)
	if has {
		k.Bytes(&ck.DeviceState)
		if ck.DeviceState == nil {
			ck.DeviceState = []byte{} // an empty frame is still a frame
		}
	}
	k.Bool(&ck.DevicePristine)
}

// walkConfig walks the fields Config.Canonical keeps, every one a word;
// Name, NoFastForward and the cache Names are not part of it. Checkpoint
// holds a canonical config, so its config section is
// Config.AppendCanonical.
func walkConfig(k *ckpt.Codec, c *Config) {
	k.Int(&c.FetchWidth)
	k.Int(&c.DispatchWidth)
	k.Int(&c.IssueWidth)
	k.Int(&c.CommitWidth)
	k.Int(&c.ROBSize)
	k.Int(&c.IQSize)
	k.Int(&c.LSQSize)
	k.Int(&c.FrontEndDepth)
	k.Int(&c.CommitDelay)
	k.Int(&c.IntALUs)
	k.Int(&c.IntMuls)
	k.Int(&c.FPUs)
	k.Int(&c.MemPorts)
	k.Int(&c.IntMulLatency)
	k.Int(&c.IntDivLatency)
	k.Int(&c.FPAddLatency)
	k.Int(&c.FPMulLatency)
	k.Int(&c.FMALatency)
	k.Int(&c.FPDivLatency)
	ckpt.Narrow(k, &c.Mode)
	k.Flag(&c.PartialSpeculation)
	k.Flag(&c.ConservativeLoadOrdering)
	k.Str(&c.Predictor.Kind)
	k.Int(&c.Predictor.TableBits)
	k.Int(&c.Predictor.HistBits)
	walkCacheConfig(k, &c.Memory.L1I)
	walkCacheConfig(k, &c.Memory.L1D)
	walkCacheConfig(k, &c.Memory.L2)
	k.Int(&c.Memory.DRAM.Latency)
	k.Int(&c.Memory.DRAM.CyclesPerLine)
	walkTLBConfig(k, &c.Memory.DTLB)
	walkTLBConfig(k, &c.Memory.ITLB)
	k.Flag(&c.RecordAccelEvents)
	k.Int(&c.PipeTraceLimit)
}

func walkCacheConfig(k *ckpt.Codec, c *mem.CacheConfig) {
	k.Int(&c.SizeBytes)
	k.Int(&c.Ways)
	k.Int(&c.LineBytes)
	k.Int(&c.HitLatency)
	k.Int(&c.MSHRs)
	k.Flag(&c.NextLinePrefetch)
}

func walkTLBConfig(k *ckpt.Codec, c *mem.TLBConfig) {
	k.Int(&c.Entries)
	k.Int(&c.PageBits)
	k.Int(&c.WalkLatency)
}

func walkStats(k *ckpt.Codec, s *Stats) {
	k.I64(&s.Cycles)
	k.U64(&s.Committed)
	k.U64(&s.Fetched)
	k.U64(&s.Squashed)
	k.U64(&s.Branches)
	k.U64(&s.Mispredicts)
	k.U64(&s.Loads)
	k.U64(&s.Stores)
	k.U64(&s.LoadsForwarded)
	k.U64(&s.AccelCommitted)
	k.U64(&s.AccelSquashed)
	k.I64(&s.AccelBusyCycles)
	k.U64(&s.AccelMemOps)
	k.I64(&s.AccelDrainWait)
	k.I64(&s.AccelConfidenceWait)
	k.U64(&s.AccelPhases)
	k.I64(&s.AccelOverlapCycles)
	k.I64(&s.DispatchStalls.Barrier)
	k.I64(&s.DispatchStalls.ROBFull)
	k.I64(&s.DispatchStalls.IQFull)
	k.I64(&s.DispatchStalls.LSQFull)
	k.I64(&s.DispatchStalls.FrontEnd)
	k.I64(&s.ROBOccupancySum)
	k.I64(&s.FastForwardedCycles)
	k.I64(&s.FastForwardJumps)
	ckpt.Sized(k, &s.AccelEvents, eventMin)
	for i := range s.AccelEvents {
		walkAccelEvent(k, &s.AccelEvents[i])
	}
	ckpt.Sized(k, &s.PipeTrace, pipeMin)
	for i := range s.PipeTrace {
		walkPipeEvent(k, &s.PipeTrace[i])
	}
}

func walkAccelEvent(k *ckpt.Codec, ev *AccelEvent) {
	k.U64(&ev.Seq)
	k.I64(&ev.Dispatch)
	k.I64(&ev.Start)
	k.I64(&ev.Done)
	k.I64(&ev.Commit)
}

func walkPipeEvent(k *ckpt.Codec, ev *PipeEvent) {
	k.U64(&ev.Seq)
	k.Int(&ev.PC)
	k.Str(&ev.Text)
	k.I64(&ev.Dispatch)
	k.I64(&ev.Issue)
	k.I64(&ev.Complete)
	k.I64(&ev.Commit)
	k.Bool(&ev.Accel)
}

func walkInstruction(k *ckpt.Codec, in *isa.Instruction) {
	k.U8((*uint8)(&in.Op))
	k.U8((*uint8)(&in.Dst))
	k.U8((*uint8)(&in.Src1))
	k.U8((*uint8)(&in.Src2))
	k.U8((*uint8)(&in.Src3))
	k.I64(&in.Imm)
}

func walkROBHot(k *ckpt.Codec, h *robHot) {
	k.U64(&h.seq)
	k.I64(&h.readyCycle)
	k.U8((*uint8)(&h.op))
	k.U8((*uint8)(&h.state))
	k.U8(&h.pendMask)
	ckpt.Narrow(k, &h.wakeUses)
}

func walkROBEntry(k *ckpt.Codec, c *robEntry) {
	k.Int(&c.pc)
	walkInstruction(k, &c.in)
	k.I64(&c.dispatchCycle)
	k.I64(&c.issueCycle)
	for s := range c.srcs {
		k.U64(&c.srcs[s].producer)
		k.U64(&c.srcs[s].value)
	}
	k.U64(&c.val)
	k.Bool(&c.predTaken)
	k.Bool(&c.predConfident)
	k.Bool(&c.actualTaken)
	k.Int(&c.nextPC)
	k.Bool(&c.mispredict)
	k.Bool(&c.addrKnown)
	k.U64(&c.addr)
	k.U64(&c.storeData)
	k.Bool(&c.forwarded)
	k.Bool(&c.accelStarted)
	k.Bool(&c.accelHasMark)
	k.Int(&c.accelMark)
	k.Int(&c.storeOff)
	k.Int(&c.storeCount)
	k.Int(&c.accelMemOps)
	k.I64(&c.accelStart)
	k.I64(&c.accelHeld)
}

func walkStore(k *ckpt.Codec, st *isa.AccelStore) {
	k.U64(&st.Addr)
	k.U64(&st.Data)
}

func walkFetched(k *ckpt.Codec, f *fetchedInst) {
	k.Int(&f.pc)
	walkInstruction(k, &f.in)
	k.Bool(&f.predTaken)
	k.Bool(&f.predConfident)
	k.I64(&f.availAt)
}

func walkComp(k *ckpt.Codec, r *compRecord) {
	k.I64(&r.cycle)
	k.U64(&r.seq)
}

func walkInt64s(k *ckpt.Codec, s *[]int64) {
	ckpt.Sized(k, s, ckpt.WordBytes)
	for i := range *s {
		k.I64(&(*s)[i])
	}
}

package sim

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Binary checkpoint codec: one walk per persisted type over the
// primitives of internal/ckpt. A checkpoint is a header (magic, version,
// the canonical config, the program hash, the clock and SuffixFree) and
// one state frame, which (*Core).walkState writes over the live core and
// decodes straight into a fresh one. walkState walks the memory image,
// the hierarchy, the predictor and the device through their own walks.
// simlint R8 audits the walks for exported-field exhaustiveness, and
// TestCheckpointWalksEveryCoreField holds walkState to every Core field.

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
	// v5: a header and one state frame that walkState writes; the
	// component sections lost their length words, the unit and port
	// reservations their counts.
	ckptVersion = 5
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
// State stays opaque until a resume decodes it.
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
	k.Bool(&ck.SuffixFree)
	k.Bytes(&ck.State)
}

// walkState walks the core's checkpointed state, the live fields
// themselves. It leaves out the construction inputs, the component
// pointers (it calls their walks instead), the header's clock and
// accelDispatched, fetchHead, the pause plumbing and the per-cycle
// scratch. Decoding expects a fresh core from New under a compatible
// config: that config fixes the unit and port counts, so they are not
// walked, and the ROB and the fetch queue decode at head 0.
func (c *Core) walkState(k *ckpt.Codec) {
	k.U64(&c.seq)
	k.Bool(&c.halted)
	k.I64(&c.lastCommitCycle)
	k.Bool(&c.sawAccelFetch)
	k.Words(c.arf[:])
	for r := range c.rename {
		k.Bool(&c.rename[r].valid)
		k.U64(&c.rename[r].seq)
	}
	walkROB(k, c.rob)
	ckpt.Sized(k, &c.accelArena, storeMin)
	for i := range c.accelArena {
		walkStore(k, &c.accelArena[i])
	}
	k.Int(&c.liveStores)
	k.Int(&c.iqCount)
	k.Int(&c.lsqCount)
	k.Int(&c.issuedCount)
	// The fetch queue is walked from its head. It decodes into the
	// backing array New sized, which keeps fetch allocation-free.
	q := c.fetchQ[c.fetchHead:]
	ckpt.Sized(k, &q, fetchedMin)
	for i := range q {
		walkFetched(k, &q[i])
	}
	if k.Decoding() {
		c.fetchQ, c.fetchHead = q, 0
	}
	k.Int(&c.fetchPC)
	k.I64(&c.fetchResumeAt)
	k.Bool(&c.fetchStopped)
	k.I64(&c.curFetchLine)
	k.U64(&c.barrierSeq)
	k.Bool(&c.barrierActive)
	for cl := range c.fu {
		walkInt64s(k, c.fu[cl])
	}
	walkInt64s(k, c.ports)
	k.I64(&c.tcaBusyUntil)
	// The completion heap's backing array goes verbatim: its layout is
	// deterministic, so copying it preserves pop order.
	ckpt.Sized(k, (*[]compRecord)(&c.pend), compMin)
	for i := range c.pend {
		walkComp(k, &c.pend[i])
	}
	walkStats(k, &c.stats)
	c.mem.WalkState(k)
	c.hier.WalkState(k)
	bpred.WalkState(k, c.pred)
	walkDevice(k, c)
}

// walkROB walks the in-flight window oldest-first: a count, then every
// hot entry, then every cold one. Decoding bounds the count by the ROB's
// capacity and rebases the window to head 0; restoreFrom then rebuilds
// the issue indexes, which are derived state.
func walkROB(k *ckpt.Codec, q *robQueue) {
	n := k.Count(q.count, robMin)
	if k.Decoding() {
		if n > q.limit {
			k.Failf("%d ROB entries, config allows %d", n, q.limit)
			n = 0
		}
		q.head, q.count = 0, n
	}
	for i := 0; i < q.count; i++ {
		walkROBHot(k, q.hotAt(i))
	}
	for i := 0; i < q.count; i++ {
		walkROBEntry(k, q.at(i))
	}
}

// walkDevice walks whether the device was ever invoked, whether its state
// follows, and that state. A device that was never invoked needs none: a
// resume may substitute any fresh device of the same configuration. An
// invoked device that cannot walk its state fails the checkpoint, and
// state that the resuming device cannot restore fails the resume, as does
// a resuming device that keeps state the checkpoint does not carry (its
// core would re-encode to different bytes).
func walkDevice(k *ckpt.Codec, c *Core) {
	k.Bool(&c.accelEverInvoked)
	snap, _ := c.dev.(isa.AccelSnapshotter)
	has := snap != nil
	k.Bool(&has)
	switch {
	case has && snap != nil:
		snap.WalkState(k)
	case has:
		k.Failf("checkpoint carries device state but the attached device cannot restore it")
	case snap != nil:
		// Only a decode gets here: the encoder sets has from snap.
		k.Failf("checkpoint carries no device state but the resuming device keeps state")
	case c.accelEverInvoked && !k.Decoding():
		k.Failf("device %q has been invoked but does not implement isa.AccelSnapshotter", c.dev.Name())
	case c.accelEverInvoked:
		k.Failf("device was invoked but no device state was captured")
	}
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

func walkInt64s(k *ckpt.Codec, s []int64) {
	for i := range s {
		k.I64(&s[i])
	}
}

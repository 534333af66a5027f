// Package chiplet simulates multi-chip-module (MCM) GPUs: several GPU
// chiplets — each with its own SMs, L1s, LLC slices, intra-chiplet crossbar
// and memory controllers — joined by an inter-chiplet network (paper
// Section VII-D). Pages are allocated to chiplets on first touch and CTAs
// are scheduled round-robin across all chiplets ("distributed" scheduling),
// following the MCM-GPU design the paper references. A memory access whose
// page lives on another chiplet pays the inter-chiplet latency and consumes
// the owning chiplet's inter-chiplet link bandwidth, which scales linearly
// with chiplet count — the proportional-scaling property that makes small
// MCM configurations valid scale models for larger ones.
package chiplet

import (
	"context"
	"fmt"
	"strconv"

	"gpuscale/internal/bandwidth"
	"gpuscale/internal/cache"
	"gpuscale/internal/config"
	"gpuscale/internal/dram"
	"gpuscale/internal/noc"
	"gpuscale/internal/obs"
	"gpuscale/internal/sm"
	"gpuscale/internal/timing"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// ctxCheckEvery is how many run-loop iterations pass between context
// cancellation checks (see gpu.RunContext for rationale).
const ctxCheckEvery = 1024

// Stats is the result of one MCM simulation.
type Stats struct {
	// Cycles is the simulated execution time.
	Cycles int64
	// Instructions and MemInstructions count issued warp instructions.
	Instructions    uint64
	MemInstructions uint64
	// IPC aggregates instructions per cycle over all SMs in the package.
	IPC float64
	// FMem is the mean SM memory-stall fraction.
	FMem float64
	// LLCMPKI is LLC misses per thousand instructions across chiplets.
	LLCMPKI float64
	// LLCMisses counts LLC misses across all chiplets.
	LLCMisses uint64
	// RemoteFraction is the share of post-L1 accesses served by a remote
	// chiplet (a first-touch locality measure).
	RemoteFraction float64
	// CTAs is the number of thread blocks executed.
	CTAs uint64
	// SimEvents is the host-cost proxy (see gpu.Stats.SimEvents).
	SimEvents uint64
}

type chipletState struct {
	sms   []*sm.SM
	l1s   []*cache.Cache
	mshrs []*cache.MSHRFile
	llc   []*cache.Cache
	xbar  noc.Network
	mem   *dram.Memory
	link  *bandwidth.Server // inter-chiplet port of this chiplet
}

// smRef flattens the package's SMs into one chip-major slice (global index
// g = chiplet*NumSMs + sm). That order is the reference loop's within-cycle
// tick order, which the timing kernel preserves by draining each visited
// cycle's due set in ascending global index.
type smRef struct {
	m *sm.SM
	p *port
	f *cache.MSHRFile // this SM's MSHR file, for batched per-cycle expiry
}

// Simulator is a configured MCM GPU plus workload. Use New.
type Simulator struct {
	cfg      config.ChipletConfig
	workload trace.Workload

	chips    []*chipletState
	pages    map[uint64]int // page number → owning chiplet
	pageBits uint
	lineBits uint
	// Variant-dependent memory-path granularity; equal to
	// LineSize/lineBits for the default line-grain L1 (see gpu.Simulator).
	xferBytes int  // bytes per link/NoC/DRAM transfer (line or sector)
	mshrBits  uint // address shift for MSHR merge keys

	nextCTA  int
	numCTAs  int
	warpsPer int
	now      int64

	llcAcc   uint64
	llcMiss  uint64
	remote   uint64
	accesses uint64
	events   uint64
	maxCyc   int64
	legacy   bool

	// Event-driven run-loop state: the shared timing kernel owns the
	// due-wheel, far-wake heap and lazy stall accrual; the Simulator is its
	// Driver (see internal/timing and gpu.Simulator for the same design).
	all         []smRef
	tk          *timing.Kernel
	legacyKinds []sm.TickKind // runLegacy per-cycle scratch
	liveTotal   int
	ctaDirty    bool
	progBuf     []trace.Program
	arena       *trace.Arena
	aw          trace.ArenaWorkload // non-nil if the workload is arena-managed

	// Observability handles; all nil when Options.Recorder is nil.
	stream      *obs.Stream
	scope       *obs.Scope
	sampleEvery int64
	nextSample  int64
}

// Options tune a simulation run.
type Options struct {
	// MaxCycles aborts the run when exceeded; zero means no limit.
	MaxCycles int64
	// Recorder attaches the observability layer; nil disables every hook.
	Recorder *obs.Recorder
	// SampleEvery overrides the recorder's sampling interval in simulated
	// cycles; zero or negative uses the recorder's default.
	SampleEvery int64
	// UseLegacyLoop runs the dense reference loop that ticks every SM every
	// cycle instead of the event-driven scheduler. Results are bit-identical
	// by contract; only host time differs. Kept for equivalence testing and
	// benchmark baselines.
	UseLegacyLoop bool
	// Uarch selects the microarchitecture variant for every chiplet,
	// overriding a zero cfg.Chiplet.Uarch. Setting both to different values
	// is an error. The zero value defers entirely to the configuration.
	Uarch uarch.Variant
}

// New validates and builds an MCM simulator.
func New(cfg config.ChipletConfig, w trace.Workload, opt Options) (*Simulator, error) {
	if opt.Uarch != (uarch.Variant{}) {
		if cfg.Chiplet.Uarch != (uarch.Variant{}) && cfg.Chiplet.Uarch != opt.Uarch {
			return nil, fmt.Errorf("chiplet: Options.Uarch %v conflicts with cfg.Chiplet.Uarch %v", opt.Uarch, cfg.Chiplet.Uarch)
		}
		cfg.Chiplet.Uarch = opt.Uarch
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("chiplet: nil workload")
	}
	k := w.Kernel()
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("chiplet: workload %q: %w", w.Name(), err)
	}
	if k.WarpsPerCTA > cfg.Chiplet.WarpsPerSM {
		return nil, fmt.Errorf("chiplet: workload %q CTA has %d warps but SMs hold only %d",
			w.Name(), k.WarpsPerCTA, cfg.Chiplet.WarpsPerSM)
	}
	s := &Simulator{
		cfg:      cfg,
		workload: w,
		pages:    make(map[uint64]int, 1<<16),
		numCTAs:  k.NumCTAs,
		warpsPer: k.WarpsPerCTA,
		maxCyc:   opt.MaxCycles,
	}
	for 1<<s.lineBits != cfg.Chiplet.LineSize {
		s.lineBits++
	}
	for 1<<s.pageBits != cfg.PageSize {
		s.pageBits++
	}
	ch := cfg.Chiplet
	variant := ch.EffectiveUarch()
	s.xferBytes = ch.LineSize
	s.mshrBits = s.lineBits
	sectored := variant.L1 == uarch.L1Sectored
	if sectored {
		s.xferBytes = uarch.SectorBytes
		s.mshrBits = 0
		for 1<<s.mshrBits != uarch.SectorBytes {
			s.mshrBits++
		}
	}
	maxCTAs := ch.MaxCTAsPerSM
	if k.CTAsPerSMLimit > 0 && k.CTAsPerSMLimit < maxCTAs {
		maxCTAs = k.CTAsPerSMLimit
	}
	s.chips = make([]*chipletState, cfg.NumChiplets)
	for c := range s.chips {
		cs := &chipletState{
			sms:   make([]*sm.SM, ch.NumSMs),
			l1s:   make([]*cache.Cache, ch.NumSMs),
			mshrs: make([]*cache.MSHRFile, ch.NumSMs),
			llc:   make([]*cache.Cache, ch.LLCSlices),
		}
		for i := 0; i < ch.NumSMs; i++ {
			cs.sms[i] = sm.MustNewVariant(ch.WarpsPerSM, maxCTAs, ch.ComputeLatency, variant)
			if sectored {
				cs.l1s[i] = cache.MustNewSectored(ch.L1SizeBytes, ch.L1Ways, ch.LineSize, uarch.SectorBytes)
			} else {
				cs.l1s[i] = cache.MustNew(ch.L1SizeBytes, ch.L1Ways, ch.LineSize)
			}
			cs.mshrs[i] = cache.NewMSHRFile(ch.L1MSHRs)
		}
		for i := range cs.llc {
			cs.llc[i] = cache.MustNew(ch.LLCSliceSize(), ch.LLCWays, ch.LineSize)
		}
		nocCfg := noc.Config{
			BisectionBytesPerCycle: ch.BytesPerCycle(ch.NoCBisectionGBps),
			Ports:                  ch.LLCSlices,
			BaseLatency:            ch.NoCBaseLatency,
		}
		switch variant.NoC {
		case uarch.RouteXbar:
			cs.xbar = noc.MustNew(nocCfg)
		case uarch.RouteDeflect:
			cs.xbar = noc.MustNewDeflect(nocCfg)
		default:
			panic("chiplet: unreachable routing variant " + string(variant.NoC))
		}
		cs.mem = dram.MustNew(dram.Config{
			Controllers:        ch.MemControllers,
			BytesPerCyclePerMC: ch.BytesPerCycle(ch.MemBWPerMCGBps),
			Latency:            ch.DRAMLatency,
		})
		cs.link = bandwidth.MustNewServer(ch.BytesPerCycle(cfg.InterChipletGBpsPerChiplet))
		s.chips[c] = cs
	}
	// Size every run-loop structure up front so the hot path never
	// allocates (see gpu.NewSequence for the same pattern).
	s.legacy = opt.UseLegacyLoop
	total := cfg.NumChiplets * ch.NumSMs
	s.all = make([]smRef, 0, total)
	for c, cs := range s.chips {
		for i, m := range cs.sms {
			s.all = append(s.all, smRef{m: m, p: &port{sim: s, chip: c, smID: i}, f: cs.mshrs[i]})
		}
	}
	s.legacyKinds = make([]sm.TickKind, total)
	s.progBuf = make([]trace.Program, k.WarpsPerCTA)
	if aw, ok := trace.AsArenaWorkload(w); ok {
		s.aw = aw
	}
	s.tk = timing.MustNew(timing.Config{Units: total}, s)
	// Workload arena: recycle programs and generators across CTA
	// launches for arena-managed workloads (see gpu.NewSequence).
	s.arena = trace.NewArena(total * ch.WarpsPerSM)
	for _, r := range s.all {
		r.m.SetRecycler(s)
	}
	s.ctaDirty = true
	if rec := opt.Recorder; rec.Enabled() {
		label := cfg.Name + "/" + w.Name()
		s.stream = rec.Stream(label)
		s.scope = rec.Scope(label + "#" + strconv.FormatInt(s.stream.ID(), 10))
		s.sampleEvery = opt.SampleEvery
		if s.sampleEvery <= 0 {
			s.sampleEvery = rec.SampleInterval()
		}
		if s.sampleEvery <= 0 {
			s.sampleEvery = obs.DefaultSampleInterval
		}
		s.nextSample = s.sampleEvery
	}
	return s, nil
}

// port adapts the MCM memory hierarchy to one SM.
type port struct {
	sim  *Simulator
	chip int
	smID int
}

// Access implements sm.MemPort for the MCM hierarchy: L1 → (first-touch
// page lookup) → possibly inter-chiplet link → owner's crossbar → owner's
// LLC slice → owner's DRAM.
func (p *port) Access(now int64, in trace.Instr) int64 {
	s := p.sim
	cs := s.chips[p.chip]
	ch := s.cfg.Chiplet
	line := in.Addr >> s.lineBits
	// key == line unless the L1 is sectored (see gpu's port.Access).
	key := in.Addr >> s.mshrBits
	bypass := in.Flags&trace.BypassL1 != 0
	if !bypass {
		if cs.l1s[p.smID].Access(in.Addr) {
			return now + int64(ch.L1HitLatency)
		}
	}
	// MSHR reclamation is batched: both run loops Expire this SM's file
	// once per visited cycle, right before the Tick that issues this
	// access, so no completed entry is live here (see gpu's port.Access).
	mshr := cs.mshrs[p.smID]
	load := in.Kind == trace.Load
	if load && !bypass {
		if comp, ok := mshr.Lookup(now, key); ok {
			return comp
		}
	}
	arrival := now
	full := mshr.Full(now)
	if full {
		if nc, ok := mshr.NextCompletion(); ok && nc > arrival {
			arrival = nc
		}
	}
	page := in.Addr >> s.pageBits
	// First-touch page allocation decides the owning chiplet.
	owner, seen := s.pages[page]
	if !seen {
		owner = p.chip
		s.pages[page] = owner
	}
	s.accesses++
	t := arrival
	remote := owner != p.chip
	if remote {
		s.remote++
		t = s.chips[owner].link.Schedule(t, s.xferBytes) + int64(s.cfg.InterChipletLatency)
	}
	oc := s.chips[owner]
	nSlices := uint64(len(oc.llc))
	slice := int(line % nSlices)
	t = oc.xbar.Transfer(t, slice, s.xferBytes)
	t += int64(ch.LLCHitLatency)
	s.llcAcc++
	sliceLocal := (line / nSlices) << s.lineBits
	if !oc.llc[slice].Access(sliceLocal) {
		s.llcMiss++
		t = oc.mem.Access(t, line, s.xferBytes)
		t += int64((line * 0x9e3779b9 >> 13) % 13)
	}
	t += int64(ch.NoCBaseLatency)
	if remote {
		t += int64(s.cfg.InterChipletLatency)
	}
	if load && !bypass && !full {
		mshr.Allocate(key, t)
	}
	return t
}

// fillCTAs launches pending CTAs across the chiplets' SMs. Under the
// default "distributed" policy (Table V) consecutive CTAs land on
// consecutive chiplets; under "contiguous" a chiplet fills before the next
// one is used, which keeps first-touch pages more local at the cost of
// balance.
func (s *Simulator) fillCTAs() {
	s.ctaDirty = false
	total := s.cfg.NumChiplets * s.cfg.Chiplet.NumSMs
	contiguous := s.cfg.CTAScheduler == "contiguous"
	for s.nextCTA < s.numCTAs {
		launched := false
		for g := 0; g < total && s.nextCTA < s.numCTAs; g++ {
			var c, i int
			if contiguous {
				c, i = g/s.cfg.Chiplet.NumSMs, g%s.cfg.Chiplet.NumSMs
			} else {
				c, i = g%s.cfg.NumChiplets, g/s.cfg.NumChiplets
			}
			m := s.chips[c].sms[i]
			if !m.CanAccept(s.warpsPer) {
				continue
			}
			progs := s.progBuf[:s.warpsPer]
			if s.aw != nil {
				for wpi := range progs {
					progs[wpi] = s.aw.NewProgramIn(s.arena, s.nextCTA, wpi)
				}
			} else {
				for wpi := range progs {
					progs[wpi] = s.workload.NewProgram(s.nextCTA, wpi)
				}
			}
			if !s.legacy {
				// Settle the SM's idle interval before the launch changes
				// its classification, then schedule it to act this cycle;
				// the kernel drops any stale far wake-up itself.
				s.tk.ScheduleNow(c*s.cfg.Chiplet.NumSMs + i)
			}
			m.LaunchCTA(progs)
			s.liveTotal += s.warpsPer
			s.nextCTA++
			launched = true
		}
		if !launched {
			return
		}
	}
}

// Release implements sm.ProgramRecycler: retired warp programs return to
// the simulation's arena when the workload is arena-managed.
func (s *Simulator) Release(p trace.Program) {
	if s.aw != nil {
		s.arena.Release(p)
	}
}

// Run executes the workload to completion.
func (s *Simulator) Run() (Stats, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run honouring context cancellation, checked every
// ctxCheckEvery run-loop iterations.
func (s *Simulator) RunContext(ctx context.Context) (Stats, error) {
	if s.legacy {
		return s.runLegacy(ctx)
	}
	return s.runEvent(ctx)
}

// flushAllAccruals settles every SM's counters up to s.now. No-op under the
// legacy loop, whose accrual already is eager.
func (s *Simulator) flushAllAccruals() {
	if s.legacy {
		return
	}
	s.tk.FlushAll()
}

// TickUnit implements timing.Driver: one due SM's visit — batched MSHR
// expiry (reclaim completed entries before any Access this Tick can
// issue), the SM tick itself, and retirement bookkeeping. The returned
// Outcome carries the SM's next wake-up for the kernel's due-wheel; NoWake
// means the SM is idle until a CTA launch ScheduleNows it.
func (s *Simulator) TickUnit(now int64, g int) timing.Outcome {
	r := s.all[g]
	liveBefore := r.m.LiveWarps()
	r.f.Expire(now)
	k := r.m.Tick(now, r.p)
	out := timing.Outcome{Wake: timing.NoWake, Kind: uint8(k), Issued: k == sm.Issued}
	if d := liveBefore - r.m.LiveWarps(); d > 0 {
		s.liveTotal -= d
		// Any warp retirement can flip CanAccept; re-scan launches.
		s.ctaDirty = true
	}
	if r.m.HasReady() {
		out.Wake = now + 1
	} else if ev, ok := r.m.NextEvent(); ok {
		out.Wake = ev
	}
	return out
}

// AccrueStall implements timing.Driver: one SM's standing classification
// settled over a whole non-ticked interval; see gpu.Simulator.AccrueStall
// for why the standing StallKind is exact over the whole interval.
func (s *Simulator) AccrueStall(g int, cycles uint64) {
	s.all[g].m.Accrue(s.all[g].m.StallKind(), cycles)
}

// AccrueTick implements timing.Driver: a ticked SM's own cycle gets the
// classification its Tick returned.
func (s *Simulator) AccrueTick(g int, kind uint8) {
	s.all[g].m.Accrue(sm.TickKind(kind), 1)
}

// CycleEnd implements timing.Driver: one simulation event per SM per
// visited cycle, ticked or not — SimEvents models the dense simulator's
// cost, not the event loop's.
func (s *Simulator) CycleEnd(now int64) {
	s.events += uint64(len(s.all))
}

// runEvent is the event-driven run loop: a thin driver over the timing
// kernel, which per simulated cycle ticks only the SMs whose wake-up is
// due, in chip-major order, matching the dense reference loop bit for bit.
// Only the workload-facing control flow lives here: CTA refills,
// completion, cancellation and cycle limits.
func (s *Simulator) runEvent(ctx context.Context) (Stats, error) {
	iters := 0
	for {
		iters++
		if iters >= ctxCheckEvery {
			iters = 0
			select {
			case <-ctx.Done():
				return Stats{}, fmt.Errorf("chiplet: %q on %s cancelled at cycle %d: %w",
					s.workload.Name(), s.cfg.Name, s.now, ctx.Err())
			default:
			}
		}
		if s.ctaDirty {
			s.fillCTAs()
		}
		if s.liveTotal == 0 {
			if s.nextCTA >= s.numCTAs {
				break
			}
			s.ctaDirty = true // mirror the dense loop's unconditional refill
		}
		if s.maxCyc > 0 && s.now > s.maxCyc {
			return Stats{}, fmt.Errorf("chiplet: %q on %s exceeded MaxCycles=%d",
				s.workload.Name(), s.cfg.Name, s.maxCyc)
		}
		s.tk.Step()
		s.now = s.tk.Now()
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
			for s.nextSample <= s.now {
				s.nextSample += s.sampleEvery
			}
		}
	}
	return s.stats(), nil
}

// runLegacy is the dense reference loop, retained as the executable
// specification the event-driven loop is checked against.
func (s *Simulator) runLegacy(ctx context.Context) (Stats, error) {
	all := s.all
	kinds := s.legacyKinds // same length as all; reused as scratch
	s.fillCTAs()
	iters := 0
	for {
		iters++
		if iters >= ctxCheckEvery {
			iters = 0
			select {
			case <-ctx.Done():
				return Stats{}, fmt.Errorf("chiplet: %q on %s cancelled at cycle %d: %w",
					s.workload.Name(), s.cfg.Name, s.now, ctx.Err())
			default:
			}
		}
		live := 0
		for _, r := range all {
			live += r.m.LiveWarps()
		}
		if live == 0 && s.nextCTA >= s.numCTAs {
			break
		}
		if s.maxCyc > 0 && s.now > s.maxCyc {
			return Stats{}, fmt.Errorf("chiplet: %q on %s exceeded MaxCycles=%d",
				s.workload.Name(), s.cfg.Name, s.maxCyc)
		}
		issued := false
		for i, r := range all {
			r.f.Expire(s.now) // batched expiry, as in the event loop
			kinds[i] = r.m.Tick(s.now, r.p)
			if kinds[i] == sm.Issued {
				issued = true
			}
			s.events++
		}
		if issued {
			for i, r := range all {
				r.m.Accrue(kinds[i], 1)
			}
			s.now++
		} else {
			next := int64(-1)
			for _, r := range all {
				if ev, ok := r.m.NextEvent(); ok && (next < 0 || ev < next) {
					next = ev
				}
			}
			if next <= s.now {
				next = s.now + 1
			}
			w := uint64(next - s.now)
			for i, r := range all {
				r.m.Accrue(kinds[i], w)
			}
			s.now = next
		}
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
			for s.nextSample <= s.now {
				s.nextSample += s.sampleEvery
			}
		}
		s.fillCTAs()
	}
	return s.stats(), nil
}

// stats settles any lazily-accrued intervals and aggregates the package's
// final statistics.
func (s *Simulator) stats() Stats {
	s.flushAllAccruals()
	if s.stream != nil {
		s.stream.Span(0, s.now, "kernel", s.workload.Name())
	}
	var st Stats
	st.Cycles = s.now
	var fmemSum float64
	for _, r := range s.all {
		ss := r.m.Stats()
		st.Instructions += ss.Instructions
		st.MemInstructions += ss.MemInstructions
		st.CTAs += ss.CTAsCompleted
		fmemSum += ss.FMem()
	}
	if st.Cycles > 0 {
		st.IPC = float64(st.Instructions) / float64(st.Cycles)
	}
	st.FMem = fmemSum / float64(len(s.all))
	st.LLCMisses = s.llcMiss
	if st.Instructions > 0 {
		st.LLCMPKI = float64(s.llcMiss) / (float64(st.Instructions) / 1000)
	}
	if s.accesses > 0 {
		st.RemoteFraction = float64(s.remote) / float64(s.accesses)
	}
	st.SimEvents = s.events + st.Instructions
	s.publishObs()
	return st
}

// sampleObs takes one interval-sampler snapshot across the package: mean
// warp occupancy, remote-access share, and the worst inter-chiplet link
// backlog. Called only when a recorder is attached.
func (s *Simulator) sampleObs() {
	s.flushAllAccruals()
	liveWarps, totalWarps := 0, 0
	var linkBacklog float64
	for _, cs := range s.chips {
		for _, m := range cs.sms {
			liveWarps += m.LiveWarps()
			totalWarps += s.cfg.Chiplet.WarpsPerSM
		}
		if b := cs.link.Backlog(s.now); b > linkBacklog {
			linkBacklog = b
		}
	}
	remote := 0.0
	if s.accesses > 0 {
		remote = float64(s.remote) / float64(s.accesses)
	}
	s.stream.Sample(s.now, map[string]float64{
		"occupancy":       float64(liveWarps) / float64(totalWarps),
		"remote_fraction": remote,
		"link_backlog":    linkBacklog,
	})
	s.publishObs()
}

// publishObs stores per-chiplet component metrics into the recorder's
// registry with Store semantics (idempotent; see gpu.publishObs). No-op
// without a recorder.
func (s *Simulator) publishObs() {
	if s.scope == nil {
		return
	}
	for c, cs := range s.chips {
		chipScope := s.scope.Sub("chiplet").Sub(strconv.Itoa(c))
		for i, m := range cs.sms {
			id := strconv.Itoa(i)
			m.PublishObs(chipScope.Sub("sm").Sub(id))
			cs.l1s[i].PublishObs(chipScope.Sub("l1").Sub(id))
			cs.mshrs[i].PublishObs(chipScope.Sub("mshr").Sub(id))
		}
		for i, llc := range cs.llc {
			llc.PublishObs(chipScope.Sub("llc").Sub(strconv.Itoa(i)))
		}
		cs.xbar.PublishObs(chipScope.Sub("noc"), s.now, s.now)
		cs.mem.PublishObs(chipScope.Sub("dram"), s.now, s.now)
		chipScope.Counter("link/bytes").Store(cs.link.TotalBytes())
	}
	s.scope.Counter("llc/accesses").Store(s.llcAcc)
	s.scope.Counter("llc/misses").Store(s.llcMiss)
	s.scope.Counter("remote_accesses").Store(s.remote)
	s.scope.Counter("accesses").Store(s.accesses)
}

// Run is the one-call convenience API: simulate w on the MCM config.
func Run(cfg config.ChipletConfig, w trace.Workload) (Stats, error) {
	s, err := New(cfg, w, Options{})
	if err != nil {
		return Stats{}, err
	}
	return s.Run()
}

package trace

// Static descriptors: an optional, non-destructive view of the address
// structure of a program, for analytical modelling (internal/analytic).
// The describers expose *where* a program's memory instructions go — the
// generator parameters (base, stride, extent) and the phase shape — so a
// predictor can estimate cache hit rates and bandwidth demand without
// replaying a single instruction. Programs and generators that cannot
// describe themselves simply don't implement the interfaces; callers fall
// back to GenUnknown, which the analytic tier reports as lowered
// confidence rather than a wrong answer.

// GenClass classifies an address generator's access pattern.
type GenClass int

const (
	// GenUnknown marks a generator that cannot describe itself.
	GenUnknown GenClass = iota
	// GenSeq is a strided sequential walk (SeqGen).
	GenSeq
	// GenRand is a uniform random walk (RandGen).
	GenRand
)

// GenDesc statically describes one address generator (or one branch of a
// composite generator). Weight is the fraction of the owning stream's
// accesses this descriptor covers; the descriptors of one generator always
// sum to 1.
type GenDesc struct {
	Class  GenClass
	Base   uint64
	Start  uint64
	Stride uint64
	Extent uint64
	Weight float64
}

// GenDescriber is the optional AddrGen capability. DescribeGen must not
// consume addresses or mutate generator state.
type GenDescriber interface {
	DescribeGen() []GenDesc
}

// DescribeGen implements GenDescriber.
func (g *SeqGen) DescribeGen() []GenDesc {
	return []GenDesc{{Class: GenSeq, Base: g.Base, Start: g.Start, Stride: g.Stride, Extent: g.Extent, Weight: 1}}
}

// DescribeGen implements GenDescriber.
func (g *RandGen) DescribeGen() []GenDesc {
	return []GenDesc{{Class: GenRand, Base: g.Base, Stride: g.Stride, Extent: g.Extent, Weight: 1}}
}

// DescribeGen implements GenDescriber by scaling each child's descriptors
// by its share of the interleave period.
func (g *InterleaveGen) DescribeGen() []GenDesc {
	period := g.A + g.B
	if period <= 0 {
		return []GenDesc{{Class: GenUnknown, Weight: 1}}
	}
	out := append(DescribeGenOf(g.GenA, float64(g.A)/float64(period)),
		DescribeGenOf(g.GenB, float64(g.B)/float64(period))...)
	return out
}

// DescribeGenOf describes any generator, scaled to the given total weight:
// describers report their structure, everything else one GenUnknown entry.
// A nil generator describes to nothing (no memory accesses).
func DescribeGenOf(g AddrGen, weight float64) []GenDesc {
	if g == nil || weight <= 0 {
		return nil
	}
	d, ok := g.(GenDescriber)
	if !ok {
		return []GenDesc{{Class: GenUnknown, Weight: weight}}
	}
	descs := d.DescribeGen()
	out := make([]GenDesc, len(descs))
	for i, dd := range descs {
		dd.Weight *= weight
		out[i] = dd
	}
	return out
}

// PhaseDesc statically describes one phase of a program: N instructions in
// groups of ComputePer computes followed by one memory instruction drawn
// from the generators in Gens (empty Gens means pure compute).
type PhaseDesc struct {
	N          int
	ComputePer int
	Store      bool
	Flags      Flags
	Gens       []GenDesc
}

// MemCount returns the number of memory instructions the phase emits: one
// per completed (ComputePer+1)-instruction group.
func (p PhaseDesc) MemCount() int {
	if len(p.Gens) == 0 || p.N <= 0 {
		return 0
	}
	return p.N / (p.ComputePer + 1)
}

// PhaseDescriber is the optional Program capability: a static description
// of the complete program (regardless of how far execution has advanced).
// DescribePhases must not consume instructions or mutate generator state.
type PhaseDescriber interface {
	DescribePhases() []PhaseDesc
}

// DescribePhases implements PhaseDescriber. It always describes the full
// phase list, including phases already executed.
func (p *PhaseProgram) DescribePhases() []PhaseDesc {
	out := make([]PhaseDesc, 0, len(p.phases))
	for i := range p.phases {
		ph := &p.phases[i]
		if ph.N <= 0 {
			continue
		}
		out = append(out, PhaseDesc{
			N:          ph.N,
			ComputePer: ph.ComputePer,
			Store:      ph.Store,
			Flags:      ph.Flags,
			Gens:       DescribeGenOf(ph.Gen, 1),
		})
	}
	return out
}

package phase

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Segment is one leg of a phased workload: run the model for Instr uops.
type Segment struct {
	Model profile.Model
	Instr uint64
}

// PhasedSource replays a repeating schedule of workload models,
// emulating the phase behaviour of real applications (e.g. gcc
// alternating between parsing and register allocation). It implements
// trace.Source and loops over the schedule indefinitely.
type PhasedSource struct {
	gens    []*synth.Generator
	lens    []uint64
	seg     int
	left    uint64
	started bool
}

// NewPhasedSource builds generators for each segment over the given
// geometry. Segment seeds should differ so the phases occupy distinct
// address regions.
func NewPhasedSource(segments []Segment, geo synth.Geometry) (*PhasedSource, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("phase: empty schedule")
	}
	p := &PhasedSource{}
	for i, seg := range segments {
		if seg.Instr == 0 {
			return nil, fmt.Errorf("phase: segment %d has zero length", i)
		}
		g, err := synth.New(seg.Model, geo)
		if err != nil {
			return nil, fmt.Errorf("phase: segment %d: %w", i, err)
		}
		// Fast-forward past each generator's prologue up front so phase
		// boundaries show steady-state behaviour, not warmup sweeps.
		g.Skip(g.Prologue())
		p.gens = append(p.gens, g)
		p.lens = append(p.lens, seg.Instr)
	}
	p.left = p.lens[0]
	return p, nil
}

// Next implements trace.Source; the schedule repeats forever.
func (p *PhasedSource) Next(u *trace.Uop) bool {
	if p.left == 0 {
		p.seg = (p.seg + 1) % len(p.gens)
		p.left = p.lens[p.seg]
	}
	p.left--
	return p.gens[p.seg].Next(u)
}

// Skip implements trace.Skipper: SkipWarm with no observer.
func (p *PhasedSource) Skip(n uint64) uint64 { return p.SkipWarm(n, nil) }

// SkipWarm implements trace.WarmSkipper segment-correctly: the schedule
// cursor advances through segment boundaries exactly as n Next calls
// would, and each segment's share of the skip is fast-forwarded on that
// segment's own generator, so per-generator state stays aligned with the
// stream position and an observer sees every branch record the skipped
// stretch would have emitted, across phase boundaries. The schedule
// repeats forever, so the skip always covers the full n.
func (p *PhasedSource) SkipWarm(n uint64, observe func(*trace.Uop)) uint64 {
	for left := n; left > 0; {
		if p.left == 0 {
			p.seg = (p.seg + 1) % len(p.gens)
			p.left = p.lens[p.seg]
		}
		take := min(p.left, left)
		p.gens[p.seg].SkipWarm(take, observe)
		p.left -= take
		left -= take
	}
	return n
}

// CurrentSegment reports which segment the next uop comes from.
func (p *PhasedSource) CurrentSegment() int { return p.seg }

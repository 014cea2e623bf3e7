// Package synth generates synthetic dynamic instruction streams that
// realize a profile.Model: the statistical stand-in for executing a SPEC
// binary (see DESIGN.md, "Substitutions").
//
// The generator controls four coupled populations:
//
//   - Instruction mix: micro-op kinds are drawn from an alias table built
//     from the model's load/store/branch percentages.
//   - Data reuse: memory addresses come from an exact LRU stack (an
//     order-statistic treap); reuse distances are sampled from bands
//     positioned between the simulated cache capacities so the model's
//     per-level miss rates emerge from the real cache simulation.
//   - Branch behaviour: a Zipf-weighted static site population emits
//     biased outcomes with a calibrated noise rate, plus direct jumps,
//     call/return pairs and (sometimes polymorphic) indirect jumps.
//   - Code footprint: a function walker moves the PC through CodeKiB of
//     code, driving L1I behaviour.
package synth

import (
	"fmt"
	"math"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Geometry tells the generator where the simulated cache capacity
// boundaries lie, in 64-byte lines. Reuse-distance bands are placed
// between these capacities.
type Geometry struct {
	L1Lines, L2Lines, L3Lines int
}

// Validate reports geometry errors.
func (g Geometry) Validate() error {
	if g.L1Lines <= 0 || g.L2Lines <= g.L1Lines || g.L3Lines <= g.L2Lines {
		return errGeometry
	}
	return nil
}

var errGeometry = geometryError{}

type geometryError struct{}

func (geometryError) Error() string { return "synth: geometry must satisfy 0 < L1 < L2 < L3" }

const (
	lineBytes = 64
	// heapBase is where synthetic data addresses start.
	heapBase = uint64(0x10000000)
	// codeBase is where synthetic code addresses start.
	codeBase = uint64(0x400000)
	// fnBytes is the synthetic function size for the PC walker.
	fnBytes = 512
	// maxCallDepth bounds the generator's shadow call stack.
	maxCallDepth = 1024
)

// uop kind indices for the mix alias table.
const (
	mixALU = iota
	mixFP
	mixLoad
	mixStore
	mixBranch
)

// mixKinds maps mix outcomes to uop kinds, letting NextBatch assign the
// kind with one indexed load instead of a switch. The order above is
// deliberate: the two kinds needing extra work (memory address, branch
// fill) sort last, so one >= compare separates them from the plain ALU/FP
// records.
var mixKinds = [...]trace.Kind{trace.KindALU, trace.KindFP, trace.KindLoad, trace.KindStore, trace.KindBranch}

// branch class indices for the class alias table.
const (
	clsCond = iota
	clsJump
	clsCall
	clsReturn
	clsIndirect
)

type condSite struct {
	pc       uint64
	taken    bool    // bias direction
	flipProb float64 // probability of deviating from the bias
}

type indirectSite struct {
	pc      uint64
	targets []uint64
	next    int
}

// Generator produces the uop stream for one application-input pair.
// It implements trace.Source. Create one per simulation; it is not safe
// for concurrent use.
type Generator struct {
	model profile.Model
	geo   Geometry
	rng   *xrand.PCG32

	mix   *xrand.Categorical
	class *xrand.Categorical

	// Data reuse state: one pool of lines per target level. Pool sizes
	// and re-reference rates are chosen so that pool-k lines are resident
	// in exactly cache level k at steady state (see buildMemory).
	bandProb *xrand.Categorical
	pool1    poolRegion // hits L1
	pool2    poolRegion // misses L1, hits L2
	pool3    poolRegion // misses L2, hits L3
	pool4    poolRegion // misses L3 (streaming)
	touched  uint64     // high-water mark of distinct lines referenced
	heap     uint64     // base of this stream's data segment
	// Prologue filler geometry (see prologueAddr).
	fillerBase    uint64
	fill1, fill2  int
	prologueTotal uint64

	// Branch state.
	condSites     []condSite
	condZipf      *xrand.Zipf
	jumpPCs       []uint64
	callPCs       []uint64
	otherZipf     *xrand.Zipf
	indirectSites []indirectSite
	callStack     []uint64
	// Conditional sites execute in bursts (loop iterations) so the
	// global-history predictors see realistic correlation.
	curSite   int
	burstLeft int

	// Prologue state: the first Prologue() uops scan the pre-populated
	// working set bottom-to-top so the cache recency order matches the
	// LRU stack before measurement begins.
	prologueLeft uint64
	prologuePos  uint64

	// Code walker state.
	numFuncs int
	curFn    int
	off      uint64
	fnZipf   *xrand.Zipf

	// Skip draw buffer: raw RNG values interpreted by the fast-forward
	// path (see SkipWarm). Allocated once on first use, reused for the
	// generator's lifetime.
	skipBuf []uint32
	// warmScratch is the record a skip rebuilds or emits in place of the
	// skipped ones; a field rather than a loop local so the unknown
	// observer callee doesn't force a per-skip heap allocation.
	warmScratch trace.Uop

	// pos is the stream position: records emitted or skipped so far.
	pos uint64
	// ckpt, when set, is the stream's shared checkpoint table (see
	// Checkpoints); walked and restored count the long cold skips this
	// generator walked or served from it, bridges the warmed skips it
	// served from it.
	ckpt                      *Checkpoints
	walked, restored, bridges uint64
}

// Model sanity bounds: far beyond anything a real profile carries, tight
// enough that malformed inputs cannot drive allocations or modulo bases
// to degenerate values.
const (
	maxRSSMiB      = 1 << 20 // 1 TiB
	maxCodeKiB     = 1 << 20 // 1 GiB of code
	maxBranchSites = 1 << 20
)

// checkModel rejects models the generator cannot realize: NaN/Inf or
// out-of-range percentages would poison the sampling tables (and every
// downstream counter), and unbounded footprint/site counts would turn
// into multi-gigabyte allocations or zero modulo bases. Callers get a
// descriptive error instead of a panic deep inside table construction.
func checkModel(m *profile.Model) error {
	pcts := []struct {
		name string
		v    float64
	}{
		{"LoadPct", m.LoadPct}, {"StorePct", m.StorePct},
		{"BranchPct", m.BranchPct}, {"MispredictPct", m.MispredictPct},
		{"L1MissPct", m.L1MissPct}, {"L2MissPct", m.L2MissPct},
		{"L3MissPct", m.L3MissPct},
	}
	for _, p := range pcts {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 100 {
			return fmt.Errorf("synth: %s %v outside [0,100]", p.name, p.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Mix.Cond", m.Mix.Cond}, {"Mix.Jump", m.Mix.Jump},
		{"Mix.Call", m.Mix.Call}, {"Mix.IndirectJump", m.Mix.IndirectJump},
		{"Mix.Return", m.Mix.Return},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("synth: %s %v negative or non-finite", f.name, f.v)
		}
	}
	if s := m.Mix.Sum(); !(s > 0) || math.IsInf(s, 0) {
		return fmt.Errorf("synth: branch mix sum %v not positive and finite", s)
	}
	if !(m.RSSMiB > 0) || m.RSSMiB > maxRSSMiB {
		return fmt.Errorf("synth: RSSMiB %v outside (0,%d]", m.RSSMiB, maxRSSMiB)
	}
	if !(m.CodeKiB > 0) || m.CodeKiB > maxCodeKiB || uint64(m.CodeKiB*1024) < 1 {
		return fmt.Errorf("synth: CodeKiB %v outside [1/1024,%d]", m.CodeKiB, maxCodeKiB)
	}
	if m.BranchSites < 0 || m.BranchSites > maxBranchSites {
		return fmt.Errorf("synth: BranchSites %d outside [0,%d]", m.BranchSites, maxBranchSites)
	}
	return nil
}

// New builds a generator for the model over the given cache geometry.
// The stream is fully determined by model.Seed.
func New(model profile.Model, geo Geometry) (*Generator, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := checkModel(&model); err != nil {
		return nil, err
	}
	g := &Generator{
		model: model,
		geo:   geo,
		rng:   xrand.NewPCG32(model.Seed),
		// Distinct streams occupy distinct address spaces so co-running
		// generators contend in shared caches instead of aliasing.
		heap: heapBase + (model.Seed%1024)<<33,
	}
	g.buildMix()
	g.buildMemory()
	g.buildBranches()
	g.buildCode()
	return g, nil
}

func (g *Generator) buildMix() {
	m := g.model
	rest := 100 - m.LoadPct - m.StorePct - m.BranchPct
	if rest < 0 {
		rest = 0
	}
	// FP share of the non-memory non-branch work: high for FP codes.
	fpShare := 0.05
	if m.Mix.Cond > 0.8 { // FP-style branch mix marks FP applications
		fpShare = 0.55
	}
	g.mix = xrand.NewCategorical([]float64{
		rest * (1 - fpShare), // alu
		rest * fpShare,       // fp
		m.LoadPct,
		m.StorePct,
		m.BranchPct,
	})
	g.class = xrand.NewCategorical([]float64{
		m.Mix.Cond, m.Mix.Jump, m.Mix.Call, m.Mix.Return, m.Mix.IndirectJump,
	})
}

// poolRegion is a contiguous range of cache lines re-referenced either
// randomly (hot pool) or round-robin (guaranteed-gap pools). Random pools
// draw their line offset with a single 32-bit Lemire draw (pool sizes are
// validated far below 2^32 lines), so there is no per-draw setup for the
// batch path to hoist.
type poolRegion struct {
	baseLine uint64
	size     int
	pos      int
	random   bool
}

func (p *poolRegion) addr(heap uint64, rng *xrand.PCG32) uint64 {
	if p.size <= 0 {
		return heap
	}
	var i uint64
	if p.random {
		i = uint64(rng.Uint32n(uint32(p.size)))
	} else {
		i = uint64(p.pos)
		p.pos++
		if p.pos >= p.size {
			p.pos = 0
		}
	}
	return heap + (p.baseLine+i)*lineBytes
}

func (g *Generator) buildMemory() {
	m := g.model
	m1 := m.L1MissPct / 100
	m2 := m.L2MissPct / 100
	m3 := m.L3MissPct / 100
	// Per-memory-reference probabilities of targeting each level.
	r1 := (1 - m1) + 1e-12
	r2 := m1 * (1 - m2)
	r3 := m1 * m2 * (1 - m3)
	r4 := m1 * m2 * m3
	g.bandProb = xrand.NewCategorical([]float64{r1, r2, r3, r4})

	c1 := float64(g.geo.L1Lines)
	c2 := float64(g.geo.L2Lines)
	c3 := float64(g.geo.L3Lines)

	// Pool sizing works in "deep-insertion age": the number of L1-missing
	// data references between consecutive touches of a pool line. All
	// residency conditions are expressed in that clock, which makes the
	// sizes closed-form:
	//
	//   pool2: age A2 must evict from L1 (A2 > 2*C1) yet stay in L2
	//          (A2 < 0.6*C2); the geometric mean splits the margin.
	//   pool3: A3 must evict from L2 (A3 > 2*C2) and stay in L3
	//          (A3*m2 < 0.6*C3) - L3 only ingests the m2 fraction.
	//   pool4: a full wrap of the stream must overflow L3.
	//
	// A round-robin pool touched with probability rho per memory
	// reference has age A = size/rho * m1 insertions, so size = (rho/m1)*A.
	a2 := sqrt(2 * c1 * 0.6 * c2)
	s2 := int((1 - m2) * a2)

	a3 := sqrt(2 * c2 * 0.6 * c3 / maxf(m2, 1e-3))
	s3 := int((1 - m3) * m2 * a3)

	maxLines := int(m.RSSMiB * 1024 * 1024 / lineBytes)
	s4 := int(2 * c3 * maxf(m3, 0.05) * 1.5)
	if lo := int(2 * c3); s4 < lo {
		s4 = lo
	}

	// Pool 1: hot set, comfortably inside L1.
	s1 := int(c1 / 2)

	// Degenerate miss profiles collapse unused pools.
	if r2 < 1e-7 {
		s2 = 0
	}
	if r3 < 1e-7 {
		s3 = 0
	}
	if r4 < 1e-7 {
		s4 = 0
	}
	if rest := maxLines - s1 - s2 - s3; s4 > rest {
		s4 = max(rest, 0)
	}

	base := uint64(0)
	place := func(size int, random bool) poolRegion {
		r := poolRegion{baseLine: base, size: size, random: random}
		base += uint64(max(size, 0))
		return r
	}
	g.pool1 = place(s1, true)
	g.pool2 = place(s2, false)
	g.pool3 = place(s3, false)
	g.pool4 = place(s4, false)
	// Filler region used by the prologue to age pools 2 and 3 to their
	// steady-state cache levels before measurement starts.
	g.fillerBase = base
	g.fill1 = int(1.2 * c2)
	g.fill2 = int(2 * c1)
	g.touched = uint64(s1 + s2 + s3)
	g.prologueLeft = uint64(s3 + g.fill1 + s2 + g.fill2 + s1)
	g.prologueTotal = g.prologueLeft
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Prologue returns the total number of leading warmup uops the generator
// emits before steady-state behaviour begins. Simulations must discard at
// least this many instructions (machine.Options.WarmupInstructions). The
// value is stable; it does not shrink as the stream is consumed.
func (g *Generator) Prologue() uint64 { return g.prologueTotal }

// prologueAddr returns the i-th warmup address. The sweep order is:
// pool 3, filler (ages pool 3 out of L1 and L2), pool 2, filler (ages
// pool 2 out of L1 only), pool 1 - leaving every pool resident at exactly
// its steady-state level when measurement begins.
func (g *Generator) prologueAddr(i uint64) uint64 {
	line := func(base uint64, off uint64) uint64 {
		return g.heap + (base+off)*lineBytes
	}
	if n := uint64(g.pool3.size); i < n {
		return line(g.pool3.baseLine, i)
	} else {
		i -= n
	}
	if n := uint64(g.fill1); i < n {
		return line(g.fillerBase, i)
	} else {
		i -= n
	}
	if n := uint64(g.pool2.size); i < n {
		return line(g.pool2.baseLine, i)
	} else {
		i -= n
	}
	if n := uint64(g.fill2); i < n {
		return line(g.fillerBase+uint64(g.fill1), i)
	} else {
		i -= n
	}
	return line(g.pool1.baseLine, i%uint64(max(g.pool1.size, 1)))
}

// memRef samples the next data address from the per-level pools. Next
// passes the generator's RNG, NextBatch its hoisted copy of the pointer.
func (g *Generator) memRef(rng *xrand.PCG32) uint64 {
	switch g.bandProb.Pick(rng.Uint32()) {
	case 0:
		return g.pool1.addr(g.heap, rng)
	case 1:
		if g.pool2.size > 0 {
			return g.pool2.addr(g.heap, rng)
		}
		return g.pool1.addr(g.heap, rng)
	case 2:
		if g.pool3.size > 0 {
			return g.pool3.addr(g.heap, rng)
		}
		return g.pool1.addr(g.heap, rng)
	default:
		if g.pool4.size > 0 {
			a := g.pool4.addr(g.heap, rng)
			if t := (a-g.heap)/lineBytes + 1; t > g.touched {
				g.touched = t
			}
			return a
		}
		if g.pool3.size > 0 {
			return g.pool3.addr(g.heap, rng)
		}
		return g.pool1.addr(g.heap, rng)
	}
}

func (g *Generator) buildBranches() {
	m := g.model
	condFrac := m.Mix.Cond
	if condFrac <= 0 {
		condFrac = 1
	}
	// The target mispredict rate is carried almost entirely by the
	// conditional sites' outcome noise. The affine correction inverts the
	// measured transfer curve of the default (tournament) predictor:
	// residual mispredicts from history pollution, burst transitions and
	// polymorphic indirect targets contribute ~0.6 % plus a 1.26x gain on
	// the injected noise (see machine's TestMispredictRateEmerges).
	effective := (m.MispredictPct - 0.6) / 1.26
	if effective < 0.03 {
		effective = 0.03
	}
	flip := effective / 100 / condFrac * 0.9
	if flip > 0.5 {
		flip = 0.5
	}
	n := m.BranchSites
	// Applications with few dynamic branches exercise proportionally
	// fewer static sites; keeping the full static population would leave
	// the Zipf tail permanently cold (untrained) and inflate the
	// mispredict rate beyond the model's target.
	if m.BranchPct < 16 {
		n = int(float64(n) * m.BranchPct / 16)
	}
	if n < 16 {
		n = 16
	}
	codeBytes := uint64(m.CodeKiB * 1024)
	g.condSites = make([]condSite, n)
	for i := range g.condSites {
		g.condSites[i] = condSite{
			pc:       codeBase + (uint64(i)*412)%codeBytes,
			taken:    g.rng.Bool(0.6),
			flipProb: flip,
		}
	}
	g.condZipf = xrand.NewZipf(n, 1.3)
	nOther := max(8, n/8)
	g.jumpPCs = make([]uint64, nOther)
	g.callPCs = make([]uint64, nOther)
	for i := 0; i < nOther; i++ {
		g.jumpPCs[i] = codeBase + (uint64(i)*1736+64)%codeBytes
		g.callPCs[i] = codeBase + (uint64(i)*2412+128)%codeBytes
	}
	g.otherZipf = xrand.NewZipf(nOther, 1.3)
	nInd := max(4, n/32)
	g.indirectSites = make([]indirectSite, nInd)
	for i := range g.indirectSites {
		site := indirectSite{pc: codeBase + (uint64(i)*3168+192)%codeBytes}
		nt := 1
		// Polymorphic sites are budgeted against the mispredict target so
		// indirect jumps contribute proportionally, not a fixed floor.
		polyFrac := m.MispredictPct / 100 * 3
		if polyFrac > 0.4 {
			polyFrac = 0.4
		}
		if g.rng.Bool(polyFrac) {
			nt = 2 + g.rng.Intn(3)
		}
		for t := 0; t < nt; t++ {
			site.targets = append(site.targets, codeBase+(uint64(i*7+t)*fnBytes)%codeBytes)
		}
		g.indirectSites[i] = site
	}
}

func (g *Generator) buildCode() {
	g.numFuncs = max(1, int(g.model.CodeKiB*1024/fnBytes))
	g.fnZipf = xrand.NewZipf(g.numFuncs, 1.2)
	g.curFn = 0
}

// pc returns the walker's current instruction address.
func (g *Generator) pc() uint64 {
	return codeBase + uint64(g.curFn)*fnBytes + g.off
}

func (g *Generator) advancePC() {
	g.off += 4
	if g.off >= fnBytes {
		g.off = 0
	}
}

// Next implements trace.Source. The stream is unbounded; wrap the
// generator in a trace.Limit to bound it.
func (g *Generator) Next(u *trace.Uop) bool {
	*u = trace.Uop{}
	g.pos++
	if g.prologueLeft > 0 {
		g.prologueLeft--
		u.PC = g.pc()
		u.Kind = trace.KindLoad
		u.Addr = g.prologueAddr(g.prologuePos)
		g.prologuePos++
		g.advancePC()
		return true
	}
	switch g.mix.Pick(g.rng.Uint32()) {
	case mixALU:
		u.PC = g.pc()
		u.Kind = trace.KindALU
	case mixFP:
		u.PC = g.pc()
		u.Kind = trace.KindFP
	case mixLoad:
		u.PC = g.pc()
		u.Kind = trace.KindLoad
		u.Addr = g.memRef(g.rng)
	case mixStore:
		u.PC = g.pc()
		u.Kind = trace.KindStore
		u.Addr = g.memRef(g.rng)
	case mixBranch:
		g.fillBranch(u)
	}
	g.advancePC()
	return true
}

// NextBatch implements trace.BatchSource natively: it emits exactly the
// record sequence repeated Next calls would (same RNG consumption, same
// field values — the machine equivalence tests enforce this), but hoists
// the per-uop costs of Next out of the inner loop: the interface
// dispatch, the RNG pointer reload, the per-record zeroing and the PC
// walker's field traffic.
func (g *Generator) NextBatch(buf []trace.Uop) int {
	rng := g.rng
	g.pos += uint64(len(buf))
	i := 0
	// Prologue prefix: the deterministic working-set sweep.
	for i < len(buf) && g.prologueLeft > 0 {
		g.prologueLeft--
		buf[i] = trace.Uop{
			PC:   g.pc(),
			Kind: trace.KindLoad,
			Addr: g.prologueAddr(g.prologuePos),
		}
		g.prologuePos++
		g.advancePC()
		i++
	}
	// Zero the steady-state suffix in one bulk clear (a vectorized memclr)
	// instead of a per-uop struct store; the fill paths below only write
	// the fields that are non-zero for their kind, exactly as Next does
	// after its per-uop zeroing.
	clear(buf[i:])
	// Hoist the PC walker (curFn, off) into registers: the non-branch
	// kinds never touch generator state beyond the walker, so pc() and
	// advancePC() reduce to an add and a wrap test on locals. Branch
	// fills can redirect the walker (calls and returns change curFn,
	// calls reset off), so the locals are written back before and
	// reloaded after fillBranch.
	pcBase := codeBase + uint64(g.curFn)*fnBytes
	off := g.off
	for ; i < len(buf); i++ {
		u := &buf[i]
		m := g.mix.Pick(rng.Uint32())
		// Every kind gets the walker PC and a table-driven Kind up front
		// instead of a five-way switch: the mix draw is near-uniform
		// noise, so a computed jump mispredicts on almost every record,
		// while this form needs only one poorly-predicted test (memory
		// reference or not, below) and the branch fill overwrites PC and
		// Kind with its own values just as Next's switch arm would.
		u.PC = pcBase + off
		u.Kind = mixKinds[m]
		if m >= mixLoad {
			if m != mixBranch {
				u.Addr = g.memRef(rng)
			} else {
				g.off = off
				g.fillBranch(u)
				pcBase = codeBase + uint64(g.curFn)*fnBytes
				off = g.off
			}
		}
		off += 4
		if off >= fnBytes {
			off = 0
		}
	}
	g.off = off
	return len(buf)
}

// fillBranch emits one branch record from RNG draws. warmBranch walks
// the same state machine on the skip buffer's draws; the helpers below
// are the transitions both share.
func (g *Generator) fillBranch(u *trace.Uop) {
	u.Kind = trace.KindBranch
	switch cls := g.class.Pick(g.rng.Uint32()); cls {
	case clsCond:
		if g.burstLeft <= 0 {
			g.curSite = g.condZipf.Sample(g.rng)
			g.burstLeft = 6 + g.rng.Geometric(1.0/18)
		}
		g.condRecord(u, g.rng.Uint32())
	case clsJump:
		g.jumpRecord(u, g.otherZipf.Sample(g.rng))
	case clsCall, clsReturn:
		if g.returns(cls) {
			g.doReturn(u)
		} else {
			g.call(u, g.otherZipf.Sample(g.rng), g.fnZipf.Sample(g.rng))
		}
	case clsIndirect:
		site := &g.indirectSites[g.rng.Intn(len(g.indirectSites))]
		site.record(u)
		if len(site.targets) > 1 {
			site.rotate(g.rng.Uint32())
		}
	}
}

// condRecord emits one iteration of the current conditional burst; r is
// the outcome draw, which flips the site's bias with probability
// flipProb (xrand.PCG32.Bool's comparison).
func (g *Generator) condRecord(u *trace.Uop, r uint32) {
	g.burstLeft--
	site := &g.condSites[g.curSite]
	taken := site.taken
	if site.flipProb >= 1 || float64(r) < site.flipProb*(1<<32) {
		taken = !taken
	}
	u.PC = site.pc
	u.Branch = trace.BranchConditional
	u.Taken = taken
	if taken {
		u.Target = site.pc - 64 // short backward loop branch
	}
}

func (g *Generator) jumpRecord(u *trace.Uop, site int) {
	pc := g.jumpPCs[site]
	u.PC = pc
	u.Branch = trace.BranchDirectJump
	u.Taken = true
	u.Target = pc + 128
}

// returns reports whether a call- or return-class draw pops the shadow
// stack. A call that would pass depth 12 returns instead, keeping the
// stack shallower than the 16-entry RAS (real call graphs are
// depth-bounded too); a return with nothing to return to calls instead.
func (g *Generator) returns(cls int) bool {
	if cls == clsCall {
		return len(g.callStack) >= 12
	}
	return len(g.callStack) > 0
}

func (g *Generator) doReturn(u *trace.Uop) {
	ret := g.callStack[len(g.callStack)-1]
	g.callStack = g.callStack[:len(g.callStack)-1]
	u.PC = ret + 60 // a PC inside the called function
	u.Branch = trace.BranchReturn
	u.Taken = true
	u.Target = ret
	// Walk back to the caller's function.
	g.curFn = int((ret - codeBase) / fnBytes % uint64(g.numFuncs))
}

// call emits a call from call site site into function callee and moves
// the walker there.
func (g *Generator) call(u *trace.Uop, site, callee int) {
	pc := g.callPCs[site]
	u.PC = pc
	u.Branch = trace.BranchDirectCall
	u.Taken = true
	// The callee is a Zipf-hot function: hot code stays in L1I.
	u.Target = codeBase + uint64(callee)*fnBytes
	if len(g.callStack) >= maxCallDepth {
		// Deep recursion: drop the oldest half, like a real stack the
		// RAS long lost track of.
		g.callStack = append(g.callStack[:0], g.callStack[maxCallDepth/2:]...)
	}
	g.callStack = append(g.callStack, pc+4)
	g.curFn = callee
	g.off = 0
}

func (s *indirectSite) record(u *trace.Uop) {
	u.PC = s.pc
	u.Branch = trace.BranchIndirectJump
	u.Taken = true
	u.Target = s.targets[s.next]
}

// rotate switches a polymorphic site to its next target when the draw r
// falls under 0.3 (xrand.PCG32.Bool(0.3)): the targets change
// unpredictably.
func (s *indirectSite) rotate(r uint32) {
	if float64(r) < 0.3*(1<<32) {
		s.next = (s.next + 1) % len(s.targets)
	}
}

// Skip implements trace.Skipper: SkipWarm with no observer.
func (g *Generator) Skip(n uint64) uint64 { return g.SkipWarm(n, nil) }

// SkipWarm implements trace.WarmSkipper: it advances the generator past
// n records without emitting them, and reports each branch record of the
// skipped stretch to observe when observe is non-nil. Every piece of
// state evolves exactly as n Next calls would evolve it — the PC walker,
// the RNG stream (same draws in the same order, including Lemire
// rejection retries), the pool cursors and footprint high-water mark,
// the conditional-site burst sequence and the shadow call stack — so the
// record emitted after the skip is bit-identical to the record n
// discarded Next calls would have exposed, and each observed branch
// record is bit-identical to the one Next would have emitted (the
// skip-equivalence tests enforce both against every profile family).
// The stream is unbounded, so the skip always covers the full n.
//
// Skip and SkipWarm share one interpreter. Skips shorter than skipBufLen
// records run through Next. Longer ones consume the RNG through a
// buffer of precomputed raw draws (PCG32.Fill) instead of one serial
// call per draw, which breaks the latency chain that bounds the emitting
// paths: the LCG recurrence runs four-wide ahead of the interpreting
// loop, whose data-dependent branches then replay cheap L1 loads on
// mispredict instead of the whole multiply chain. Non-branch records are
// never materialized — that is what keeps a skip far cheaper than
// draining — while each branch record is rebuilt by warmBranch, whose
// state transitions a cold skip needs anyway; only the observe call is
// skipped without an observer. Unconsumed draws are returned to the
// stream with an O(log n) rewind (PCG32.Advance) when the skip ends.
//
// A generator built from a Checkpoints table serves cold skips (nil
// observe) of at least minCheckpointSkip records from it: one ending at a
// position the table recorded restores that state in O(1), any other
// walks and records where it lands.
func (g *Generator) SkipWarm(n uint64, observe func(*trace.Uop)) uint64 {
	if observe == nil && g.ckpt != nil && n >= minCheckpointSkip {
		return g.skipCheckpointed(n)
	}
	g.skip(n, observe)
	return n
}

func (g *Generator) skip(n uint64, observe func(*trace.Uop)) {
	// Prologue prefix: a deterministic working-set sweep whose only
	// per-record state is the sweep position and the PC walker, so it
	// fast-forwards in O(1). No branches occur before the prologue ends,
	// so curFn is untouched and the PC offset is pure arithmetic.
	if p := min(g.prologueLeft, n); p > 0 {
		g.prologueLeft -= p
		g.prologuePos += p
		g.off = (g.off + 4*p) % fnBytes
		g.pos += p
		n -= p
	}
	u := &g.warmScratch
	// Short skips don't amortize a buffer fill; at these lengths Next's
	// cost is acceptable.
	if n < skipBufLen {
		for ; n > 0; n-- {
			g.Next(u)
			if observe != nil && u.Kind == trace.KindBranch {
				observe(u)
			}
		}
		return
	}
	g.pos += n
	if g.skipBuf == nil {
		g.skipBuf = make([]uint32, skipBufLen)
	}
	buf := g.skipBuf
	g.rng.Fill(buf)
	idx := 0
	off := g.off
	mix, band := g.mix, g.bandProb
	// Pool 1 is the only random pool (2-4 are placed round-robin), so the
	// memory path below needs just its size for the hand-inlined draw.
	var p1n uint32
	if g.pool1.size > 0 {
		p1n = uint32(g.pool1.size)
	}
	// bandActs bakes memRef's empty-pool fall-throughs into a packed
	// band → action map (0 none, 1 pool-1 draw, 2-4 round-robin cursor
	// k), so the loop resolves a memory reference with one shift-and-mask
	// instead of re-walking the pool cascade. The mix/band branches
	// themselves stay real branches: a fully branchless (cmov/setcc)
	// interpretation was tried and lost ~25% — it trades predictable-ish
	// mispredicts for a longer serial dependency chain and register
	// spills, and the buffered draws already make a mispredict replay
	// cheap (L1 reloads, not the RNG multiply chain).
	var bandActs uint32
	if p1n != 0 {
		bandActs = 0x01010101 // every band falls through to pool 1
	}
	if g.pool2.size > 0 {
		bandActs = bandActs&^(0xff<<8) | 2<<8
	}
	if g.pool3.size > 0 {
		// memRef's band-3 fall-through is pool4 → pool3 → pool1.
		bandActs = bandActs&^(0xff<<16|0xff<<24) | 3<<16 | 3<<24
	}
	if g.pool4.size > 0 {
		bandActs = bandActs&^(0xff<<24) | 4<<24
	}
	for ; n > 0; n-- {
		// One refill check per record covers every draw below except the
		// rejection loops, which check for themselves; skipHeadroom
		// bounds the non-rejecting per-record consumption.
		if idx > skipBufLen-skipHeadroom {
			idx = g.skipRefill(idx)
		}
		m := mix.Pick(buf[idx])
		idx++
		if m == mixBranch {
			g.off = off
			idx = g.warmBranch(idx, u)
			if observe != nil {
				observe(u)
			}
			off = g.off + 4
			if off >= fnBytes {
				off = 0
			}
			continue
		}
		if m >= mixLoad {
			b := band.Pick(buf[idx])
			idx++
			act := int(bandActs>>uint(b*8)) & 0xff
			if act == 1 {
				m64 := uint64(buf[idx]) * uint64(p1n)
				idx++
				if l := uint32(m64); l < p1n {
					t := -p1n % p1n
					for l < t {
						if idx == skipBufLen {
							idx = g.skipRefill(idx)
						}
						m64 = uint64(buf[idx]) * uint64(p1n)
						idx++
						l = uint32(m64)
					}
				}
			} else if act != 0 {
				g.skipCursor(act)
			}
		}
		off += 4
		if off >= fnBytes {
			off = 0
		}
	}
	g.off = off
	// Return the buffered draws that were never consumed: Fill advanced
	// the RNG to the buffer's end, the stream position is idx.
	g.rng.Advance(uint64(idx) - uint64(skipBufLen))
}

// skipCursor advances the round-robin cursor of pool act (2-4), the
// deep-reuse arm of the skip loop's memory path; pool 4 also feeds the
// footprint high-water mark exactly as memRef's pool-4 arm does.
func (g *Generator) skipCursor(act int) {
	var p *poolRegion
	switch act {
	case 2:
		p = &g.pool2
	case 3:
		p = &g.pool3
	default:
		p = &g.pool4
		if t := p.baseLine + uint64(p.pos) + 1; t > g.touched {
			g.touched = t
		}
	}
	p.pos++
	if p.pos >= p.size {
		p.pos = 0
	}
}

const (
	// skipBufLen is the skip draw buffer size: big enough to amortize
	// refills (a leftover slide plus a Fill per ~skipBufLen/1.5 records),
	// small enough to stay L1-resident.
	skipBufLen = 512
	// skipHeadroom is the most draws one record can consume outside the
	// self-checking rejection loops: the mix pick, plus the larger of a
	// memory reference (band + pool draw) and a branch (class pick plus a
	// conditional's burst refresh: site, two geometric halves, flip).
	skipHeadroom = 8
)

// logBurstRemain is Geometric(1.0/18)'s denominator, precomputed with
// the identical expression so warmBranch's inverse transform is
// bit-equal to the Geometric call in fillBranch.
var logBurstRemain = math.Log(1 - 1.0/18)

// skipRefill slides the unconsumed tail of the skip buffer to the front
// and fills the freed space with fresh draws; idx is the first
// unconsumed position. Returns the new read index, 0.
func (g *Generator) skipRefill(idx int) int {
	rem := copy(g.skipBuf, g.skipBuf[idx:])
	g.rng.Fill(g.skipBuf[rem:])
	return 0
}

// warmBranch is fillBranch on the skip buffer: it consumes the same draws
// from skipBuf at idx, makes the same state transitions and fills u with
// the same record. Returns the new buffer index.
func (g *Generator) warmBranch(idx int, u *trace.Uop) int {
	buf := g.skipBuf
	*u = trace.Uop{Kind: trace.KindBranch}
	cls := g.class.Pick(buf[idx])
	idx++
	switch cls {
	case clsCond:
		if g.burstLeft <= 0 {
			g.curSite = g.condZipf.Pick(buf[idx])
			// Geometric(1/18) by inverse transform on the two-draw
			// Float64, exactly as xrand.PCG32.Geometric computes it.
			uf := float64((uint64(buf[idx+1])<<32|uint64(buf[idx+2]))>>11) / (1 << 53)
			g.burstLeft = 6 + int(math.Log(1-uf)/logBurstRemain)
			idx += 3
		}
		g.condRecord(u, buf[idx])
		idx++
	case clsJump:
		g.jumpRecord(u, g.otherZipf.Pick(buf[idx]))
		idx++
	case clsCall, clsReturn:
		if g.returns(cls) {
			g.doReturn(u)
		} else {
			g.call(u, g.otherZipf.Pick(buf[idx]), g.fnZipf.Pick(buf[idx+1]))
			idx += 2
		}
	case clsIndirect:
		// Intn(len(indirectSites)) = Uint64n: two draws per attempt,
		// top-of-range rejections resampled. The refill check keeps one
		// more draw for the rotation below.
		sites := uint64(len(g.indirectSites))
		bound := ^uint64(0) - (^uint64(0) % sites)
		var v uint64
		for {
			if idx+3 > skipBufLen {
				idx = g.skipRefill(idx)
			}
			v = uint64(buf[idx])<<32 | uint64(buf[idx+1])
			idx += 2
			if v < bound {
				break
			}
		}
		site := &g.indirectSites[v%sites]
		site.record(u)
		if len(site.targets) > 1 {
			site.rotate(buf[idx])
			idx++
		}
	}
	return idx
}

// Footprint returns the number of distinct lines the generator has
// touched so far (the simulated, pre-extrapolation working set).
func (g *Generator) Footprint() uint64 { return g.touched }

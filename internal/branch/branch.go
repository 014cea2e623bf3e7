// Package branch models dynamic branch direction predictors, a branch
// target buffer and a return-address stack, mirroring the speculation
// machinery whose mispredict counters
// (br_inst_exec.all_branches / br_misp_exec.all_branches) the paper reads.
//
// Direction predictors implement the Predictor interface and are named
// by a Spec from the package's catalogue; the Unit type combines a
// direction predictor with target prediction and per-class statistics.
package branch

import "repro/internal/trace"

// Predictor predicts conditional branch directions.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
	// state lists the predictor's mutable state for a unit snapshot
	// (see Unit.Snapshot).
	state(c *stateCodec)
}

// counter2 is a saturating 2-bit counter: 0,1 predict not-taken; 2,3 taken.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) update(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Static predicts every branch taken (backward-taken heuristics need
// target knowledge the trace provides only at resolve time, so this is the
// simplest useful baseline).
type Static struct{}

// Predict implements Predictor.
func (Static) Predict(pc uint64) bool { return true }

// Update implements Predictor.
func (Static) Update(pc uint64, taken bool) {}

// Bimodal is a table of 2-bit counters indexed by PC.
type Bimodal struct {
	table []counter2
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) *Bimodal {
	size := 1 << bits
	t := make([]counter2, size)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &Bimodal{table: t, mask: uint64(size - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Gshare XORs a global history register with the PC to index a table of
// 2-bit counters (McFarling 1993).
type Gshare struct {
	table   []counter2
	mask    uint64
	history uint64
	histLen uint
}

// NewGshare returns a gshare predictor with 2^bits counters and histBits
// bits of global history.
func NewGshare(bits, histBits int) *Gshare {
	size := 1 << bits
	t := make([]counter2, size)
	for i := range t {
		t[i] = 2
	}
	return &Gshare{table: t, mask: uint64(size - 1), histLen: uint(histBits)}
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histLen) - 1
}

// TwoLevelLocal is a PAg two-level predictor: a per-branch history table
// selects a pattern-indexed counter table (Yeh & Patt 1991).
type TwoLevelLocal struct {
	histories []uint16
	histMask  uint64
	patterns  []counter2
	patMask   uint64
	histLen   uint
}

// NewTwoLevelLocal returns a local predictor with 2^histEntries local
// history registers of histBits bits and a shared 2^histBits pattern table.
func NewTwoLevelLocal(histEntriesBits, histBits int) *TwoLevelLocal {
	ph := make([]counter2, 1<<histBits)
	for i := range ph {
		ph[i] = 2
	}
	return &TwoLevelLocal{
		histories: make([]uint16, 1<<histEntriesBits),
		histMask:  uint64(1<<histEntriesBits - 1),
		patterns:  ph,
		patMask:   uint64(1<<histBits - 1),
		histLen:   uint(histBits),
	}
}

// Predict implements Predictor.
func (l *TwoLevelLocal) Predict(pc uint64) bool {
	h := l.histories[(pc>>2)&l.histMask]
	return l.patterns[uint64(h)&l.patMask].taken()
}

// Update implements Predictor.
func (l *TwoLevelLocal) Update(pc uint64, taken bool) {
	hi := (pc >> 2) & l.histMask
	h := l.histories[hi]
	pi := uint64(h) & l.patMask
	l.patterns[pi] = l.patterns[pi].update(taken)
	h <<= 1
	if taken {
		h |= 1
	}
	l.histories[hi] = h & uint16(l.patMask)
}

// Tournament combines a global (gshare) and a local predictor with a
// per-PC chooser table, in the style of the Alpha 21264.
type Tournament struct {
	global  *Gshare
	local   *TwoLevelLocal
	chooser []counter2 // >=2 selects global
	mask    uint64
}

// tournamentLocalHist is the history length of a tournament predictor's
// local component.
const tournamentLocalHist = 12

// NewTournament returns a tournament predictor sized by bits: a
// gshare:bits:bits global component, a two-level-local:(bits-1):12 local
// one and a 2^bits-entry chooser.
func NewTournament(bits int) *Tournament {
	ch := make([]counter2, 1<<bits)
	for i := range ch {
		ch[i] = 2
	}
	return &Tournament{
		global:  NewGshare(bits, bits),
		local:   NewTwoLevelLocal(bits-1, tournamentLocalHist),
		chooser: ch,
		mask:    uint64(1<<bits - 1),
	}
}

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser[(pc>>2)&t.mask].taken() {
		return t.global.Predict(pc)
	}
	return t.local.Predict(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	g := t.global.Predict(pc)
	l := t.local.Predict(pc)
	if g != l {
		i := (pc >> 2) & t.mask
		t.chooser[i] = t.chooser[i].update(g == taken)
	}
	t.global.Update(pc, taken)
	t.local.Update(pc, taken)
}

// Perceptron is the perceptron predictor of Jiménez & Lin (HPCA 2001):
// per-PC weight vectors dotted with global history.
type Perceptron struct {
	// weights holds 2^tableBits rows of stride weights, bias first.
	weights []int8
	stride  uint64
	mask    uint64
	history []int8 // +1 taken, -1 not taken
	theta   int32
}

// NewPerceptron returns a perceptron predictor with 2^tableBits
// perceptrons over histLen bits of history.
func NewPerceptron(tableBits, histLen int) *Perceptron {
	stride := uint64(histLen + 1) // +1 for bias weight
	return &Perceptron{
		weights: make([]int8, stride<<tableBits),
		stride:  stride,
		mask:    uint64(1<<tableBits - 1),
		history: make([]int8, histLen),
		theta:   int32(1.93*float64(histLen) + 14),
	}
}

// row returns the weight vector of pc's perceptron.
func (p *Perceptron) row(pc uint64) []int8 {
	i := ((pc >> 2) & p.mask) * p.stride
	return p.weights[i : i+p.stride]
}

func (p *Perceptron) output(pc uint64) int32 {
	w := p.row(pc)
	y := int32(w[0])
	for i, h := range p.history {
		y += int32(w[i+1]) * int32(h)
	}
	return y
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

// Update implements Predictor.
func (p *Perceptron) Update(pc uint64, taken bool) {
	y := p.output(pc)
	pred := y >= 0
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		w := p.row(pc)
		t := int8(-1)
		if taken {
			t = 1
		}
		w[0] = satAdd8(w[0], t)
		for i, h := range p.history {
			w[i+1] = satAdd8(w[i+1], t*h)
		}
	}
	copy(p.history, p.history[1:])
	if taken {
		p.history[len(p.history)-1] = 1
	} else {
		p.history[len(p.history)-1] = -1
	}
}

func satAdd8(a, b int8) int8 {
	s := int16(a) + int16(b)
	if s > 127 {
		return 127
	}
	if s < -128 {
		return -128
	}
	return int8(s)
}

// Stats accumulates prediction outcomes per branch class.
type Stats struct {
	// Executed counts branches seen, indexed by trace.BranchClass.
	Executed [trace.NumBranchClasses + 1]uint64
	// Mispredicted counts direction or target mispredicts per class.
	Mispredicted [trace.NumBranchClasses + 1]uint64
}

// Total returns total branches and total mispredicts.
func (s *Stats) Total() (executed, mispredicted uint64) {
	for c := 1; c <= trace.NumBranchClasses; c++ {
		executed += s.Executed[c]
		mispredicted += s.Mispredicted[c]
	}
	return executed, mispredicted
}

// MispredictRate returns mispredicted/executed over all classes, or 0.
func (s *Stats) MispredictRate() float64 {
	e, m := s.Total()
	if e == 0 {
		return 0
	}
	return float64(m) / float64(e)
}

// Unit is a complete branch unit: direction predictor, branch target
// buffer and return-address stack.
type Unit struct {
	dir   Predictor
	btb   *BTB
	ras   *RAS
	stats Stats
}

// NewUnit assembles a branch unit around the given direction predictor.
func NewUnit(dir Predictor, btbBits, rasDepth int) *Unit {
	return &Unit{dir: dir, btb: NewBTB(btbBits), ras: NewRAS(rasDepth)}
}

// Stats returns the accumulated statistics.
func (u *Unit) Stats() Stats { return u.stats }

// Resolve processes one branch uop: predicts, compares with the resolved
// outcome, trains, and reports whether the branch was mispredicted.
func (u *Unit) Resolve(up *trace.Uop) bool {
	cls := up.Branch
	u.stats.Executed[cls]++
	misp := false
	switch cls {
	case trace.BranchConditional:
		// Direction prediction only: conditional targets are direct and
		// decode early, so a BTB miss costs a fetch bubble, not a flush.
		pred := u.dir.Predict(up.PC)
		misp = pred != up.Taken
		u.dir.Update(up.PC, up.Taken)
		if up.Taken {
			u.btb.Update(up.PC, up.Target)
		}
	case trace.BranchDirectJump:
		// Direct targets decode early; treat as always predicted.
	case trace.BranchDirectCall:
		u.ras.Push(up.PC + 4)
	case trace.BranchReturn:
		misp = u.ras.Pop() != up.Target
	case trace.BranchIndirectJump:
		misp = !u.btb.Hit(up.PC, up.Target)
		u.btb.Update(up.PC, up.Target)
	}
	if misp {
		u.stats.Mispredicted[cls]++
	}
	return misp
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	pcs     []uint64
	targets []uint64
	mask    uint64
}

// NewBTB returns a BTB with 2^bits entries.
func NewBTB(bits int) *BTB {
	size := 1 << bits
	return &BTB{
		pcs:     make([]uint64, size),
		targets: make([]uint64, size),
		mask:    uint64(size - 1),
	}
}

func (b *BTB) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Hit reports whether the BTB holds the correct target for pc.
func (b *BTB) Hit(pc, target uint64) bool {
	i := b.index(pc)
	return b.pcs[i] == pc && b.targets[i] == target
}

// Update installs the resolved target for pc.
func (b *BTB) Update(pc, target uint64) {
	i := b.index(pc)
	b.pcs[i] = pc
	b.targets[i] = target
}

// RAS is a fixed-depth return address stack with wraparound (overflow
// silently overwrites the oldest entry, as in hardware).
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS returns a return-address stack with the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth), depth: depth}
}

// Push records a return address.
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % r.depth
	r.stack[r.top] = addr
}

// Pop returns the most recently pushed address (0 when empty/corrupt).
func (r *RAS) Pop() uint64 {
	v := r.stack[r.top]
	r.stack[r.top] = 0
	r.top = (r.top - 1 + r.depth) % r.depth
	return v
}

// ResetStats zeroes the unit's statistics while keeping predictor state
// warm, for discarding a warmup window.
func (u *Unit) ResetStats() { u.stats = Stats{} }

// Warm applies one branch record's state transitions — direction
// training, BTB fill, RAS push/pop — without predicting or counting.
// Sampled runs feed it the branch records inside fast-forward gaps
// (functional warming): predictor state is large and phase-sensitive,
// so freezing it across a gap leaves every history-indexed entry
// trained on a stale phase of its site, a bias no affordable warmup
// window can retrain away.
func (u *Unit) Warm(up *trace.Uop) {
	switch up.Branch {
	case trace.BranchConditional:
		u.dir.Update(up.PC, up.Taken)
		if up.Taken {
			u.btb.Update(up.PC, up.Target)
		}
	case trace.BranchDirectCall:
		u.ras.Push(up.PC + 4)
	case trace.BranchReturn:
		u.ras.Pop()
	case trace.BranchIndirectJump:
		u.btb.Update(up.PC, up.Target)
	}
}

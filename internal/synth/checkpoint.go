package synth

import (
	"sync"

	"repro/internal/profile"
	"repro/internal/xrand"
)

const (
	// minCheckpointSkip is the shortest cold skip a checkpoint table
	// serves or records. Sampled gaps and window lead-ins are hundreds
	// of thousands of records; shorter skips (and every skip of the
	// generator prologue, which is O(1) anyway) are walked unrecorded.
	minCheckpointSkip = 16 << 10
	// maxCheckpoints caps the checkpoints one stream's table keeps.
	// Once full, further long skips still walk but are not recorded.
	maxCheckpoints = 64
	// maxWarmCheckpoints caps the warmed bridge ends one stream's table
	// keeps (RecordWarm); once full, further bridges walk unrecorded.
	maxWarmCheckpoints = 64
)

// Checkpoints is one stream's fast-forward checkpoint table: the
// generator state at the end of each long cold skip, keyed by the
// absolute stream position the skip reached. The stream is a pure
// function of (model, geometry), and Skip is bit-identical to the Next
// calls it replaces, so the state at a position does not depend on how
// the generator got there: a generator asked to skip to a recorded
// position restores that state in O(1) instead of walking the gap.
//
// The table also memoizes warmed skips (RecordWarm): the generator
// state at the end of a skip whose tail fed a caller's model, with that
// model's state. Such an entry is keyed by the end position and by a
// caller-chosen description of everything else the model's state
// depends on.
//
// A table belongs to one stream and only hands out generators of that
// stream (New), so it cannot be attached to another stream's generator.
// It is safe for concurrent use by any number of its generators.
type Checkpoints struct {
	model profile.Model
	geo   Geometry

	mu   sync.Mutex
	at   map[uint64]*checkpoint
	warm map[warmKey]*checkpoint
}

// warmKey names one warmed skip end: the caller's run description and
// the stream position the skip reached.
type warmKey struct {
	run string
	pos uint64
}

// checkpoint is the mutable generator state at one stream position; the
// immutable tables (alias samplers, pool geometry, branch sites, call
// targets) are rebuilt identically by every generator of the stream.
type checkpoint struct {
	rng                       xrand.PCG32
	pool                      [4]int
	touched                   uint64
	prologueLeft, prologuePos uint64
	curSite, burstLeft        int
	curFn                     int
	off                       uint64
	callStack                 []uint64
	// next holds the target cursor of each polymorphic indirect site, in
	// site order; monomorphic sites never move theirs.
	next []uint8
	// warm is the caller's state a warmed skip left behind (RecordWarm).
	warm []byte
}

// NewCheckpoints returns an empty checkpoint table for the stream of
// model over geo.
func NewCheckpoints(model profile.Model, geo Geometry) *Checkpoints {
	return &Checkpoints{model: model, geo: geo, at: make(map[uint64]*checkpoint), warm: make(map[warmKey]*checkpoint)}
}

// New builds a fresh generator of the table's stream that serves its
// long cold skips from the table and records the ones it walks.
func (t *Checkpoints) New() (*Generator, error) {
	g, err := New(t.model, t.geo)
	if err != nil {
		return nil, err
	}
	g.ckpt = t
	return g, nil
}

// lookup returns the checkpoint at stream position pos, or nil.
// Checkpoints are immutable once stored, so the caller reads it
// unlocked.
func (t *Checkpoints) lookup(pos uint64) *checkpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.at[pos]
}

// record stores g's state at its current position unless the table is
// full or already holds that position (two generators walking to one
// position concurrently reach identical states; the first store wins).
func (t *Checkpoints) record(g *Generator) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.at[g.pos]; !ok && len(t.at) < maxCheckpoints {
		t.at[g.pos] = g.capture()
	}
}

// capture snapshots g's mutable state.
func (g *Generator) capture() *checkpoint {
	cp := &checkpoint{
		rng:          *g.rng,
		pool:         [4]int{g.pool1.pos, g.pool2.pos, g.pool3.pos, g.pool4.pos},
		touched:      g.touched,
		prologueLeft: g.prologueLeft,
		prologuePos:  g.prologuePos,
		curSite:      g.curSite,
		burstLeft:    g.burstLeft,
		curFn:        g.curFn,
		off:          g.off,
		callStack:    append([]uint64(nil), g.callStack...),
	}
	for i := range g.indirectSites {
		if s := &g.indirectSites[i]; len(s.targets) > 1 {
			cp.next = append(cp.next, uint8(s.next))
		}
	}
	return cp
}

// restore puts g into the state cp recorded at stream position pos.
func (g *Generator) restore(cp *checkpoint, pos uint64) {
	*g.rng = cp.rng
	g.pool1.pos, g.pool2.pos, g.pool3.pos, g.pool4.pos = cp.pool[0], cp.pool[1], cp.pool[2], cp.pool[3]
	g.touched = cp.touched
	g.prologueLeft, g.prologuePos = cp.prologueLeft, cp.prologuePos
	g.curSite, g.burstLeft = cp.curSite, cp.burstLeft
	g.curFn, g.off = cp.curFn, cp.off
	g.callStack = append(g.callStack[:0], cp.callStack...)
	k := 0
	for i := range g.indirectSites {
		if s := &g.indirectSites[i]; len(s.targets) > 1 {
			s.next = int(cp.next[k])
			k++
		}
	}
	g.pos = pos
}

// skipCheckpointed is Skip on a generator with a checkpoint table: a
// long skip ending at a recorded position restores it, any other long
// skip walks and records where it lands.
func (g *Generator) skipCheckpointed(n uint64) uint64 {
	end := g.pos + n
	if cp := g.ckpt.lookup(end); cp != nil {
		g.restore(cp, end)
		g.restored++
		return n
	}
	g.skip(n, nil)
	g.walked++
	g.ckpt.record(g)
	return n
}

// Pos returns the stream position: records emitted or skipped so far.
func (g *Generator) Pos() uint64 { return g.pos }

// RestoreWarm serves a warmed skip of n records from the generator's
// table: when RecordWarm stored an entry under run at position Pos()+n,
// the generator jumps there in O(1) and the caller's state recorded
// with it is returned. Otherwise ok is false and the generator is
// untouched, as it always is without a table.
func (g *Generator) RestoreWarm(run string, n uint64) (state []byte, ok bool) {
	if g.ckpt == nil {
		return nil, false
	}
	end := g.pos + n
	t := g.ckpt
	t.mu.Lock()
	cp, ok := t.warm[warmKey{run, end}]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	g.restore(cp, end)
	g.bridges++
	return cp.warm, true
}

// RecordWarm offers the generator's state at its current position to
// its table under run, with the caller's state that state builds. The
// caller guarantees that every generator of the stream reaching this
// position under run leaves that same caller state. state is called,
// outside the table's lock, only while the table has room and no entry
// there (generators racing to one entry may each build it; the first
// store wins). Without a table it does nothing.
func (g *Generator) RecordWarm(run string, state func() []byte) {
	t := g.ckpt
	if t == nil {
		return
	}
	k := warmKey{run, g.pos}
	wanted := func() bool {
		_, ok := t.warm[k]
		return !ok && len(t.warm) < maxWarmCheckpoints
	}
	t.mu.Lock()
	want := wanted()
	t.mu.Unlock()
	if !want {
		return
	}
	cp := g.capture()
	cp.warm = state()
	t.mu.Lock()
	defer t.mu.Unlock()
	if wanted() {
		t.warm[k] = cp
	}
}

// CheckpointStats returns how many long cold skips this generator
// walked (and offered to its table), how many it restored from the
// table, and how many warmed skips it restored (RestoreWarm). All are
// zero for a generator built without a table.
func (g *Generator) CheckpointStats() (walked, restored, bridges uint64) {
	return g.walked, g.restored, g.bridges
}

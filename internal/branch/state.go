package branch

import "encoding/binary"

// Snapshot returns a compact copy of the unit's predictor, BTB and RAS
// state; the statistics are not part of it. Restore on a unit built from
// the same predictor spec and BTB and RAS sizes puts the state back, so
// every later prediction and state change matches the unit it was taken
// from. Each table keeps only the entries that differ from a fresh
// unit's, as a uvarint index delta and a varint value, so a lightly
// trained unit costs a few bytes per trained entry and a fresh one a
// byte per table.
func (u *Unit) Snapshot() []byte {
	c := stateCodec{}
	u.state(&c)
	return append([]byte(nil), c.b...)
}

// Restore puts the unit into the state snap recorded, keeping its
// statistics. snap must come from Snapshot on a unit of the same spec
// and sizes.
func (u *Unit) Restore(snap []byte) {
	u.state(&stateCodec{b: snap, load: true})
}

// state lists the unit's mutable state for c.
func (u *Unit) state(c *stateCodec) {
	u.dir.state(c)
	table(c, u.btb.pcs, 0)
	table(c, u.btb.targets, 0)
	table(c, u.ras.stack, 0)
	reg(c, &u.ras.top)
}

// stateCodec writes a unit's state to b or, when load is set, reads it
// back from b. Every state method lists its tables and registers once,
// in one order, and so serves both directions.
type stateCodec struct {
	b    []byte
	load bool
}

// integer is every element type a branch table or register holds.
type integer interface {
	~int | ~int8 | ~uint8 | ~uint16 | ~uint64
}

// table carries the entries of t that differ from reset: per entry the
// index distance from the previous one (at least 1) and the value, then
// a 0. Loading resets the whole table first.
func table[T integer](c *stateCodec, t []T, reset T) {
	if c.load {
		for i := range t {
			t[i] = reset
		}
		for i := -1; ; {
			d := c.uvarint()
			if d == 0 {
				return
			}
			i += int(d)
			t[i] = T(c.varint())
		}
	}
	last := -1
	for i, v := range t {
		if v != reset {
			c.b = binary.AppendUvarint(c.b, uint64(i-last))
			c.b = binary.AppendVarint(c.b, int64(v))
			last = i
		}
	}
	c.b = append(c.b, 0)
}

// reg carries one register.
func reg[T integer](c *stateCodec, v *T) {
	if c.load {
		*v = T(c.varint())
		return
	}
	c.b = binary.AppendVarint(c.b, int64(*v))
}

func (c *stateCodec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		panic("branch: truncated unit snapshot")
	}
	c.b = c.b[n:]
	return v
}

func (c *stateCodec) varint() int64 {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		panic("branch: truncated unit snapshot")
	}
	c.b = c.b[n:]
	return v
}

func (Static) state(*stateCodec) {}

func (b *Bimodal) state(c *stateCodec) { table(c, b.table, 2) }

func (g *Gshare) state(c *stateCodec) {
	table(c, g.table, 2)
	reg(c, &g.history)
}

func (l *TwoLevelLocal) state(c *stateCodec) {
	table(c, l.histories, 0)
	table(c, l.patterns, 2)
}

func (t *Tournament) state(c *stateCodec) {
	t.global.state(c)
	t.local.state(c)
	table(c, t.chooser, 2)
}

func (p *Perceptron) state(c *stateCodec) {
	table(c, p.weights, 0)
	table(c, p.history, 0)
}

func (t *TAGE) state(c *stateCodec) {
	t.base.state(c)
	for i := range t.tables {
		tb := &t.tables[i]
		table(c, tb.tags, 0)
		table(c, tb.ctr, 0)
		table(c, tb.use, 0)
	}
	reg(c, &t.history)
	reg(c, &t.useAlt)
}

package synth

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// checkpointTail is how many records after a skip the checkpoint tests
// compare: long enough to expose any piece of state a restore missed
// (burst counters, call stack, pool cursors, polymorphic targets).
const checkpointTail = 64 << 10

// advance moves g forward n records through the emitting batch path.
func advance(g *Generator, n uint64) {
	buf := make([]trace.Uop, 1024)
	for n > 0 {
		k := min(n, uint64(len(buf)))
		g.NextBatch(buf[:k])
		n -= k
	}
}

// sameTail requires a and b to sit at one position with one footprint
// and to emit identical next checkpointTail records.
func sameTail(t *testing.T, label string, a, b *Generator) {
	t.Helper()
	if a.pos != b.pos || a.Footprint() != b.Footprint() {
		t.Fatalf("%s: position %d != %d or footprint %d != %d",
			label, a.pos, b.pos, a.Footprint(), b.Footprint())
	}
	ba := make([]trace.Uop, checkpointTail)
	bb := make([]trace.Uop, checkpointTail)
	a.NextBatch(ba)
	b.NextBatch(bb)
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("%s: record %d after the skip diverged:\nwant %+v\ngot  %+v", label, i, ba[i], bb[i])
		}
	}
	if a.Footprint() != b.Footprint() {
		t.Fatalf("%s: footprint %d != %d after the tail", label, a.Footprint(), b.Footprint())
	}
}

// TestCheckpointRestoreEquivalence is the restore correctness gate: for
// every profile family, a generator that reaches a position by
// restoring a checkpoint must sit exactly where one that walked there
// does — same position, same next records, same footprint — whatever
// path led it to the skip, including a start inside the prologue.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for name, m := range skipTestModels(t) {
		t.Run(name, func(t *testing.T) {
			table := NewCheckpoints(m, testGeometry())
			probe, err := New(m, testGeometry())
			if err != nil {
				t.Fatal(err)
			}
			pro := probe.Prologue()
			// Each case walks from walkFrom and restores from restoreFrom,
			// both skipping to end.
			// Both skip, with Skip or (nilObserve) SkipWarm(n, nil).
			cases := []struct {
				label                      string
				walkFrom, restoreFrom, end uint64
				nilObserve                 bool
			}{
				{"from stream start", 0, 0, pro + 200000, false},
				{"from inside the prologue", pro / 2, pro / 3, pro + 300000, false},
				{"steady state", pro + 5000, pro + 70000, pro + 500000, false},
				{"SkipWarm with a nil observer", pro + 1000, pro + 3000, pro + 600000, true},
			}
			for _, c := range cases {
				skip := func(g *Generator, n uint64) {
					if c.nilObserve {
						g.SkipWarm(n, nil)
					} else {
						g.Skip(n)
					}
				}
				ref, _ := New(m, testGeometry())
				advance(ref, c.walkFrom)
				ref.Skip(c.end - c.walkFrom)

				walker, err := table.New()
				if err != nil {
					t.Fatal(err)
				}
				advance(walker, c.walkFrom)
				skip(walker, c.end-c.walkFrom)
				if w, r, _ := walker.CheckpointStats(); w != 1 || r != 0 {
					t.Fatalf("%s: walker stats walked=%d restored=%d, want 1/0", c.label, w, r)
				}
				restorer, _ := table.New()
				advance(restorer, c.restoreFrom)
				skip(restorer, c.end-c.restoreFrom)
				if w, r, _ := restorer.CheckpointStats(); w != 0 || r != 1 {
					t.Fatalf("%s: restorer stats walked=%d restored=%d, want 0/1", c.label, w, r)
				}
				sameTail(t, c.label+" (walked)", ref, walker)
				ref2, _ := New(m, testGeometry())
				advance(ref2, c.end)
				sameTail(t, c.label+" (restored)", ref2, restorer)
			}
		})
	}
}

// TestCheckpointBounds checks the table's constant bounds: skips under
// minCheckpointSkip neither record nor restore, and the table stops
// recording at maxCheckpoints while long skips keep walking correctly.
func TestCheckpointBounds(t *testing.T) {
	table := NewCheckpoints(testModel(), testGeometry())
	g, err := table.New()
	if err != nil {
		t.Fatal(err)
	}
	g.Skip(minCheckpointSkip - 1)
	if w, r, _ := g.CheckpointStats(); w != 0 || r != 0 || len(table.at) != 0 {
		t.Fatalf("short skip: walked=%d restored=%d, %d checkpoints; want none", w, r, len(table.at))
	}
	// A warm skip must walk the gap to feed its observer, so it neither
	// records nor restores, however long.
	g.SkipWarm(minCheckpointSkip, func(*trace.Uop) {})
	if w, r, _ := g.CheckpointStats(); w != 0 || r != 0 || len(table.at) != 0 {
		t.Fatalf("warm skip: walked=%d restored=%d, %d checkpoints; want none", w, r, len(table.at))
	}
	for i := 0; i < maxCheckpoints+8; i++ {
		g.Skip(minCheckpointSkip)
	}
	if len(table.at) != maxCheckpoints {
		t.Fatalf("table holds %d checkpoints, want the cap %d", len(table.at), maxCheckpoints)
	}
	if w, _, _ := g.CheckpointStats(); w != maxCheckpoints+8 {
		t.Fatalf("walked = %d, want %d", w, maxCheckpoints+8)
	}
	ref, _ := New(testModel(), testGeometry())
	ref.Skip(g.pos)
	sameTail(t, "past the cap", ref, g)
}

// TestCheckpointConcurrent shares one table between two generators
// running concurrently: both walk to one position at the same time,
// then one walks to a new position while the other waits to restore
// it, and the first walks on. Every generator's next records must match
// a table-less generator's at the same position (run under -race by the
// race-kernel target).
func TestCheckpointConcurrent(t *testing.T) {
	m := testModel()
	table := NewCheckpoints(m, testGeometry())
	probe, _ := New(m, testGeometry())
	first := probe.Prologue() + 100000
	const second, third = 150000, 90000

	gens := make([]*Generator, 2)
	for i := range gens {
		g, err := table.New()
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	walkedSecond := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g := gens[0]
		g.Skip(first)
		g.Skip(second)
		close(walkedSecond)
		g.Skip(third)
	}()
	go func() {
		defer wg.Done()
		g := gens[1]
		g.Skip(first)
		<-walkedSecond
		g.Skip(second)
	}()
	wg.Wait()

	w0, r0, _ := gens[0].CheckpointStats()
	w1, r1, _ := gens[1].CheckpointStats()
	// The simultaneous skip to first is walked by one or both; second is
	// walked by gens[0] and restored by gens[1]; third is walked.
	if r1 < 1 || w0 < 2 || w0+w1+r0+r1 != 5 {
		t.Fatalf("stats walked/restored = %d/%d and %d/%d; want gens[1] to restore second", w0, r0, w1, r1)
	}
	for i, g := range gens {
		ref, _ := New(m, testGeometry())
		ref.Skip(g.pos)
		sameTail(t, []string{"walker", "restorer"}[i], ref, g)
	}
}

// TestCheckpointWarm checks the warmed-skip memo: an entry is served
// only under its run and end position, restores the generator exactly
// where a walk lands, builds the caller's state only when the table
// keeps it, and stops recording at maxWarmCheckpoints. A generator
// without a table neither records nor restores.
func TestCheckpointWarm(t *testing.T) {
	m := testModel()
	table := NewCheckpoints(m, testGeometry())
	probe, _ := New(m, testGeometry())
	start, n := probe.Prologue()+5000, uint64(70000)

	walker, _ := table.New()
	advance(walker, start)
	if _, ok := walker.RestoreWarm("a", n); ok {
		t.Fatal("an empty table served a warmed skip")
	}
	walker.SkipWarm(n, func(*trace.Uop) {})
	built := 0
	walker.RecordWarm("a", func() []byte { built++; return []byte("state-a") })
	walker.RecordWarm("a", func() []byte { built++; return []byte("again") })
	if built != 1 || len(table.warm) != 1 {
		t.Fatalf("state built %d times, table holds %d warm entries; want 1 and 1", built, len(table.warm))
	}

	restorer, _ := table.New()
	advance(restorer, start)
	if _, ok := restorer.RestoreWarm("b", n); ok {
		t.Fatal("an entry was served under another run")
	}
	if _, ok := restorer.RestoreWarm("a", n-1); ok {
		t.Fatal("an entry was served at another end position")
	}
	st, ok := restorer.RestoreWarm("a", n)
	if !ok || string(st) != "state-a" {
		t.Fatalf("RestoreWarm = %q, %v; want the recorded state", st, ok)
	}
	if _, _, b := restorer.CheckpointStats(); b != 1 {
		t.Fatalf("restorer counts %d restored bridges, want 1", b)
	}
	ref, _ := New(m, testGeometry())
	advance(ref, start+n)
	sameTail(t, "warm restore", ref, restorer)

	for range maxWarmCheckpoints + 8 {
		walker.Skip(1000)
		walker.RecordWarm("a", func() []byte { return nil })
	}
	if len(table.warm) != maxWarmCheckpoints {
		t.Fatalf("table holds %d warm entries, want the cap %d", len(table.warm), maxWarmCheckpoints)
	}

	plain, _ := New(m, testGeometry())
	advance(plain, start)
	plain.RecordWarm("a", func() []byte { t.Fatal("a table-less generator built state"); return nil })
	if _, ok := plain.RestoreWarm("a", n); ok || plain.pos != start {
		t.Fatal("a table-less generator restored a warmed skip")
	}
}

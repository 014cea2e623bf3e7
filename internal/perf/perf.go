// Package perf exposes simulation results through a Linux-perf-style named
// counter interface. The event names are exactly the Haswell counter flags
// the paper lists for each characteristic (Section III), so analysis code
// reads simulated runs the same way the authors' scripts read
// `perf stat` output.
package perf

import (
	"fmt"
	"slices"

	"repro/internal/jsonx"
)

// Event names used by the paper (Table VIII and Section IV).
const (
	// InstRetired counts retired instructions (inst_retired.any).
	InstRetired = "inst_retired.any"
	// RefCycles counts unhalted reference cycles
	// (cpu_clk_unhalted.ref_tsc).
	RefCycles = "cpu_clk_unhalted.ref_tsc"
	// UopsRetired counts all retired micro-operations
	// (uops_retired.all).
	UopsRetired = "uops_retired.all"
	// AllLoads counts retired load micro-operations
	// (mem_uops_retired.all_loads).
	AllLoads = "mem_uops_retired.all_loads"
	// AllStores counts retired store micro-operations
	// (mem_uops_retired.all_stores).
	AllStores = "mem_uops_retired.all_stores"
	// AllBranches counts executed branch instructions
	// (br_inst_exec.all_branches).
	AllBranches = "br_inst_exec.all_branches"
	// MispBranches counts mispredicted executed branches
	// (br_misp_exec.all_branches).
	MispBranches = "br_misp_exec.all_branches"
	// CondBranches counts conditional branches
	// (br_inst_exec.all_conditional).
	CondBranches = "br_inst_exec.all_conditional"
	// DirectJumps counts unconditional direct jumps
	// (br_inst_exec.all_direct_jmp).
	DirectJumps = "br_inst_exec.all_direct_jmp"
	// DirectCalls counts direct near calls
	// (br_inst_exec.all_direct_near_call).
	DirectCalls = "br_inst_exec.all_direct_near_call"
	// IndirectJumps counts indirect non-call/return jumps
	// (br_inst_exec.all_indirect_jump_non_call_ret).
	IndirectJumps = "br_inst_exec.all_indirect_jump_non_call_ret"
	// Returns counts indirect near returns
	// (br_inst_exec.all_indirect_near_return).
	Returns = "br_inst_exec.all_indirect_near_return"
	// L1Hit / L1Miss count load uops by L1 outcome
	// (mem_load_uops_retired.l1_hit / .l1_miss).
	L1Hit  = "mem_load_uops_retired.l1_hit"
	L1Miss = "mem_load_uops_retired.l1_miss"
	// L2Hit / L2Miss count load uops by L2 outcome.
	L2Hit  = "mem_load_uops_retired.l2_hit"
	L2Miss = "mem_load_uops_retired.l2_miss"
	// L3Hit / L3Miss count load uops by L3 outcome.
	L3Hit  = "mem_load_uops_retired.l3_hit"
	L3Miss = "mem_load_uops_retired.l3_miss"
	// ICacheMisses counts L1I misses (icache.misses).
	ICacheMisses = "icache.misses"
	// DTLBWalks counts completed page walks
	// (dtlb_load_misses.walk_completed).
	DTLBWalks = "dtlb_load_misses.walk_completed"
)

// Events lists every event the simulator records, in sorted name order
// (like `perf list` output). A snapshot holds its counts in this order,
// serializes them in this order, and Multiplex fills its PMU groups in
// this order.
var Events = [...]string{
	AllBranches, CondBranches, DirectJumps, DirectCalls, IndirectJumps, Returns,
	MispBranches, RefCycles, DTLBWalks, ICacheMisses, InstRetired,
	L1Hit, L1Miss, L2Hit, L2Miss, L3Hit, L3Miss, AllLoads, AllStores, UopsRetired,
}

// event returns name's index in Events and panics if name is not an
// event: every caller names one of the constants above.
func event(name string) int {
	i, ok := slices.BinarySearch(Events[:], name)
	if !ok {
		panic(fmt.Sprintf("perf: %q is not a simulator event", name))
	}
	return i
}

// Counters is an immutable snapshot of one run's event counts, plus the
// footprint metrics the paper samples with `ps`.
type Counters struct {
	values [len(Events)]uint64
	// RSSBytes is the peak resident set size.
	RSSBytes uint64
	// VSZBytes is the peak virtual set size.
	VSZBytes uint64
	// Seconds is the modeled wall-clock execution time.
	Seconds float64
}

// NewCounters builds a snapshot from a value map. An event the map
// leaves out counts zero; a name that is not in Events panics.
func NewCounters(values map[string]uint64, rss, vsz uint64, seconds float64) *Counters {
	c := &Counters{RSSBytes: rss, VSZBytes: vsz, Seconds: seconds}
	for name, v := range values {
		c.values[event(name)] = v
	}
	return c
}

// AppendJSON appends the snapshot's serialized form,
// {"values":{...},"rss_bytes":N,"vsz_bytes":N,"seconds":F}, with every
// event in Events order — byte-identical to json.Marshal of the
// equivalent tagged struct with a full event map. Event counts are
// uint64 and Seconds is written in its shortest round-tripping form, so
// UnmarshalJSON reproduces the snapshot bit-identically; the persistent
// result store depends on this. Seconds must be finite.
func (c *Counters) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonx.Writer{B: dst}
	c.WriteJSON(&w)
	if w.Err != nil {
		return dst, w.Err
	}
	return w.B, nil
}

// WriteJSON is AppendJSON on a caller's writer, for records that embed
// a snapshot.
func (c *Counters) WriteJSON(w *jsonx.Writer) {
	w.Raw(`{"values":{`)
	for i, name := range Events {
		if i > 0 {
			w.Raw(",")
		}
		w.String(name)
		w.Raw(":")
		w.Uint(c.values[i])
	}
	w.Raw(`},"rss_bytes":`)
	w.Uint(c.RSSBytes)
	w.Raw(`,"vsz_bytes":`)
	w.Uint(c.VSZBytes)
	w.Raw(`,"seconds":`)
	w.Float(c.Seconds)
	w.Raw("}")
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (c *Counters) MarshalJSON() ([]byte, error) { return c.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler, rebuilding the snapshot
// produced by AppendJSON.
func (c *Counters) UnmarshalJSON(data []byte) error {
	var d jsonx.Decoder
	d.Reset(data)
	c.DecodeJSON(&d)
	return d.End()
}

// DecodeJSON is UnmarshalJSON on a caller's cursor, for records that
// embed a snapshot. Unknown top-level keys are skipped. In the event
// map, a name that is not in Events is a decode error (a store record
// naming one is corrupt), a missing event decodes as zero and a
// repeated one keeps its last count.
func (c *Counters) DecodeJSON(d *jsonx.Decoder) {
	c.values = [len(Events)]uint64{}
	if !d.Object() {
		return
	}
	for key, ok := d.NextKey(); ok; key, ok = d.NextKey() {
		switch string(key) {
		case "values":
			if !d.Object() {
				continue
			}
			// Records list the events in order, so the slot after the
			// last one decoded is checked before searching.
			next := 0
			for name, ok := d.NextKey(); ok; name, ok = d.NextKey() {
				i := next
				if i == len(Events) || Events[i] != string(name) {
					for i = 0; i < len(Events) && Events[i] != string(name); i++ {
					}
					if i == len(Events) {
						d.Fail(fmt.Errorf("perf: unknown event %q", name))
						return
					}
				}
				c.values[i] = d.Uint()
				next = i + 1
			}
		case "rss_bytes":
			c.RSSBytes = d.Uint()
		case "vsz_bytes":
			c.VSZBytes = d.Uint()
		case "seconds":
			c.Seconds = d.Float()
		default:
			d.Skip()
		}
	}
}

// MustValue returns the count for the named event and panics if name
// is not an event.
func (c *Counters) MustValue(name string) uint64 { return c.values[event(name)] }

// Ratio returns MustValue(num)/MustValue(den), or 0 when the
// denominator is zero.
func (c *Counters) Ratio(num, den string) float64 {
	d := c.MustValue(den)
	if d == 0 {
		return 0
	}
	return float64(c.MustValue(num)) / float64(d)
}

// IPC returns instructions per cycle.
func (c *Counters) IPC() float64 { return c.Ratio(InstRetired, RefCycles) }

// LoadPct returns load uops as a percentage of all uops.
func (c *Counters) LoadPct() float64 { return 100 * c.Ratio(AllLoads, UopsRetired) }

// StorePct returns store uops as a percentage of all uops.
func (c *Counters) StorePct() float64 { return 100 * c.Ratio(AllStores, UopsRetired) }

// MemPct returns load+store uops as a percentage of all uops.
func (c *Counters) MemPct() float64 { return c.LoadPct() + c.StorePct() }

// BranchPct returns branches as a percentage of retired instructions.
func (c *Counters) BranchPct() float64 { return 100 * c.Ratio(AllBranches, InstRetired) }

// MispredictPct returns the branch mispredict rate in percent.
func (c *Counters) MispredictPct() float64 { return 100 * c.Ratio(MispBranches, AllBranches) }

// CacheMissPct returns the load miss rate in percent at the given level
// (1, 2 or 3), computed the way the paper does from
// mem_load_uops_retired.lN_hit / .lN_miss.
func (c *Counters) CacheMissPct(level int) float64 {
	var hit, miss string
	switch level {
	case 1:
		hit, miss = L1Hit, L1Miss
	case 2:
		hit, miss = L2Hit, L2Miss
	case 3:
		hit, miss = L3Hit, L3Miss
	default:
		panic(fmt.Sprintf("perf: invalid cache level %d", level))
	}
	h := c.MustValue(hit)
	m := c.MustValue(miss)
	if h+m == 0 {
		return 0
	}
	return 100 * float64(m) / float64(h+m)
}

package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func sample() *Counters {
	return NewCounters(map[string]uint64{
		InstRetired:  1000,
		RefCycles:    500,
		UopsRetired:  1000,
		AllLoads:     250,
		AllStores:    90,
		AllBranches:  160,
		MispBranches: 8,
		CondBranches: 120,
		L1Hit:        237,
		L1Miss:       13,
		L2Hit:        8,
		L2Miss:       5,
		L3Hit:        4,
		L3Miss:       1,
	}, 4096*10, 4096*20, 1.5)
}

func TestValueAndMustValue(t *testing.T) {
	c := sample()
	if v, ok := c.Value(InstRetired); !ok || v != 1000 {
		t.Errorf("Value = %d,%v", v, ok)
	}
	if _, ok := c.Value("nonexistent.event"); ok {
		t.Error("missing event reported present")
	}
	if got := c.MustValue(AllLoads); got != 250 {
		t.Errorf("MustValue = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustValue on missing event did not panic")
		}
	}()
	c.MustValue("nope")
}

func TestNamesSorted(t *testing.T) {
	names := sample().Names()
	if len(names) == 0 {
		t.Fatal("no names")
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names unsorted at %d: %s < %s", i, names[i], names[i-1])
		}
	}
}

func TestDerivedMetrics(t *testing.T) {
	c := sample()
	if got := c.IPC(); got != 2 {
		t.Errorf("IPC = %v, want 2", got)
	}
	if got := c.LoadPct(); got != 25 {
		t.Errorf("LoadPct = %v, want 25", got)
	}
	if got := c.StorePct(); got != 9 {
		t.Errorf("StorePct = %v, want 9", got)
	}
	if got := c.MemPct(); got != 34 {
		t.Errorf("MemPct = %v, want 34", got)
	}
	if got := c.BranchPct(); got != 16 {
		t.Errorf("BranchPct = %v, want 16", got)
	}
	if got := c.MispredictPct(); got != 5 {
		t.Errorf("MispredictPct = %v, want 5", got)
	}
}

func TestCacheMissPct(t *testing.T) {
	c := sample()
	if got := c.CacheMissPct(1); got != 5.2 {
		t.Errorf("L1 = %v, want 5.2", got)
	}
	if got := c.CacheMissPct(2); math.Abs(got-38.4615) > 0.001 {
		t.Errorf("L2 = %v, want ~38.46", got)
	}
	if got := c.CacheMissPct(3); got != 20 {
		t.Errorf("L3 = %v, want 20", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid level did not panic")
		}
	}()
	c.CacheMissPct(4)
}

func TestRatioEdgeCases(t *testing.T) {
	c := NewCounters(map[string]uint64{"a": 5, "b": 0}, 0, 0, 0)
	if got := c.Ratio("a", "b"); got != 0 {
		t.Errorf("zero denominator ratio = %v", got)
	}
	if got := c.Ratio("a", "missing"); got != 0 {
		t.Errorf("missing event ratio = %v", got)
	}
	empty := NewCounters(nil, 0, 0, 0)
	if empty.CacheMissPct(1) != 0 {
		t.Error("empty counters miss pct != 0")
	}
}

func TestCountersCopied(t *testing.T) {
	src := map[string]uint64{"x": 1}
	c := NewCounters(src, 0, 0, 0)
	src["x"] = 99
	if v, _ := c.Value("x"); v != 1 {
		t.Error("NewCounters did not copy the map")
	}
}

func TestFootprintFields(t *testing.T) {
	c := sample()
	if c.RSSBytes != 40960 || c.VSZBytes != 81920 || c.Seconds != 1.5 {
		t.Errorf("footprint fields = %d/%d/%v", c.RSSBytes, c.VSZBytes, c.Seconds)
	}
}

func TestMultiplexNoErrorWhenFits(t *testing.T) {
	c := sample()
	m := Multiplex(c, 64, 1)
	for _, name := range c.Names() {
		a, _ := c.Value(name)
		b, _ := m.Value(name)
		if a != b {
			t.Errorf("event %s changed %d -> %d with ample slots", name, a, b)
		}
	}
}

func TestMultiplexBoundedError(t *testing.T) {
	c := sample()
	m := Multiplex(c, 4, 7)
	for _, name := range c.Names() {
		a, _ := c.Value(name)
		b, _ := m.Value(name)
		if a == 0 {
			continue
		}
		rel := math.Abs(float64(b)-float64(a)) / float64(a)
		if rel > 0.25 {
			t.Errorf("event %s error %.2f too large", name, rel)
		}
	}
	// Footprint and time pass through unscaled.
	if m.RSSBytes != c.RSSBytes || m.Seconds != c.Seconds {
		t.Error("non-counter fields modified")
	}
}

func TestMultiplexDeterministic(t *testing.T) {
	c := sample()
	a := Multiplex(c, 4, 9)
	b := Multiplex(c, 4, 9)
	for _, name := range c.Names() {
		va, _ := a.Value(name)
		vb, _ := b.Value(name)
		if va != vb {
			t.Fatal("same seed, different multiplexing noise")
		}
	}
	d := Multiplex(c, 4, 10)
	same := true
	for _, name := range c.Names() {
		va, _ := a.Value(name)
		vd, _ := d.Value(name)
		if va != vd {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestMultiplexPreservesRatiosApproximately(t *testing.T) {
	c := sample()
	m := Multiplex(c, 4, 3)
	if got, want := m.IPC(), c.IPC(); math.Abs(got-want)/want > 0.2 {
		t.Errorf("multiplexed IPC %v too far from %v", got, want)
	}
}

// fullBranchSample mirrors a real run: all five branch subtype events
// present and summing exactly to AllBranches, plus enough other events to
// force several multiplex groups.
func fullBranchSample() *Counters {
	return NewCounters(map[string]uint64{
		InstRetired:   1000000,
		RefCycles:     500000,
		UopsRetired:   1000000,
		AllLoads:      250000,
		AllStores:     90000,
		AllBranches:   160000,
		MispBranches:  8000,
		CondBranches:  120000,
		DirectJumps:   14000,
		DirectCalls:   11000,
		IndirectJumps: 4000,
		Returns:       11000,
		L1Hit:         237000,
		L1Miss:        13000,
		L2Hit:         8000,
		L2Miss:        5000,
		L3Hit:         4000,
		L3Miss:        1000,
		ICacheMisses:  900,
		DTLBWalks:     120,
	}, 4096*10, 4096*20, 1.5)
}

// TestMultiplexBranchSharesStayConsistent: under multiplexing, the five
// branch-class shares never sum past 100% of AllBranches and stay close
// to full coverage — the bug this renormalization fixes let independent
// per-event noise push the sum above 100%.
func TestMultiplexBranchSharesStayConsistent(t *testing.T) {
	c := fullBranchSample()
	for seed := uint64(0); seed < 200; seed++ {
		m := Multiplex(c, 4, seed)
		all := float64(m.MustValue(AllBranches))
		if all == 0 {
			continue
		}
		var sub float64
		for _, name := range []string{CondBranches, DirectJumps, DirectCalls, IndirectJumps, Returns} {
			sub += float64(m.MustValue(name))
		}
		if share := 100 * sub / all; share > 100.0001 || share < 99.9 {
			t.Fatalf("seed %d: branch class shares sum to %.4f%%", seed, share)
		}
		if mp := m.MispredictPct(); mp > 100 {
			t.Fatalf("seed %d: mispredict rate %.2f%% > 100%%", seed, mp)
		}
	}
}

// TestMultiplexGroupSharesScale: events scheduled into the same PMU
// group carry the same scaling factor.
func TestMultiplexGroupSharesScale(t *testing.T) {
	// Ten like-named events; sorted order puts e00..e03 in group 0.
	vals := map[string]uint64{}
	for i := 0; i < 10; i++ {
		vals[fmt.Sprintf("e%02d", i)] = 1000000
	}
	c := NewCounters(vals, 0, 0, 0)
	m := Multiplex(c, 4, 5)
	g0 := m.MustValue("e00")
	for _, name := range []string{"e01", "e02", "e03"} {
		if v := m.MustValue(name); v != g0 {
			t.Errorf("same-group event %s scaled to %d, group leader %d", name, v, g0)
		}
	}
	// Across seeds, some group boundary must show a different factor
	// (otherwise grouping is vacuous).
	differs := false
	for seed := uint64(0); seed < 20 && !differs; seed++ {
		m := Multiplex(c, 4, seed)
		if m.MustValue("e00") != m.MustValue("e04") {
			differs = true
		}
	}
	if !differs {
		t.Error("groups never scaled independently across 20 seeds")
	}
}

// countersRef is the tagged struct Counters serialized through before
// its codec was hand-written: json.Marshal of it is the reference the
// codec must match byte for byte.
type countersRef struct {
	Values   map[string]uint64 `json:"values"`
	RSSBytes uint64            `json:"rss_bytes"`
	VSZBytes uint64            `json:"vsz_bytes"`
	Seconds  float64           `json:"seconds"`
}

// TestCountersJSONMatchesReference: AppendJSON writes exactly what
// json.Marshal writes for the reference struct (sorted, HTML-escaped
// keys; encoding/json float formatting), UnmarshalJSON reads it back
// bit-identically, and the exported field set is the one the codec
// covers — a new field must be added to the codec and to this test.
func TestCountersJSONMatchesReference(t *testing.T) {
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Counters{})) {
		if f.IsExported() {
			fields = append(fields, f.Name)
		}
	}
	if want := []string{"RSSBytes", "VSZBytes", "Seconds"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("Counters exported fields = %v, codec covers %v", fields, want)
	}
	cases := []*Counters{
		NewCounters(map[string]uint64{InstRetired: 1 << 63, RefCycles: 7, "z<&>": 1, "a": 0}, 1<<40, math.MaxUint64, 1e-7),
		NewCounters(nil, 0, 0, math.Copysign(0, -1)),
		NewCounters(map[string]uint64{L1Hit: 3}, 1, 2, 1e21),
	}
	for i, c := range cases {
		want, err := json.Marshal(countersRef{Values: c.values, RSSBytes: c.RSSBytes, VSZBytes: c.VSZBytes, Seconds: c.Seconds})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: AppendJSON\n got %s\nwant %s", i, got, want)
		}
		var back Counters
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&back, c) || math.Signbit(back.Seconds) != math.Signbit(c.Seconds) {
			t.Fatalf("case %d: round trip %+v, want %+v", i, back, *c)
		}
	}
	if _, err := NewCounters(nil, 0, 0, math.NaN()).AppendJSON(nil); err == nil {
		t.Fatal("AppendJSON accepted a NaN")
	}
	var c Counters
	if err := c.UnmarshalJSON([]byte(`{"values":null}`)); err != nil || c.values == nil {
		t.Fatalf("null event map: err %v, values %v (want an empty map)", err, c.values)
	}
}

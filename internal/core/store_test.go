package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/store"
)

// refCharacteristics is Characteristics without its methods, so
// json.Marshal and json.Unmarshal of it run encoding/json's reflection:
// the reference the hand-written codec must match byte for byte.
// (perf.Counters keeps its own codec, checked against its reflection
// reference in package perf.)
type refCharacteristics Characteristics

// checkCodec asserts that AppendJSON writes exactly json.Marshal's
// bytes (and errors exactly when it does), and that the codec's decode
// agrees with encoding/json's, reproduces c and re-encodes to the same
// bytes. A record holding invalid UTF-8 is not reproduced — both codecs
// decode it as U+FFFD — so with utf8Valid false the decoded value is
// checked as a record of its own instead.
func checkCodec(t *testing.T, name string, c *Characteristics, utf8Valid bool) {
	t.Helper()
	want, wantErr := json.Marshal((*refCharacteristics)(c))
	got, err := c.AppendJSON(make([]byte, 0, 64))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: AppendJSON error %v, json.Marshal error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendJSON differs from json.Marshal:\n got %s\nwant %s", name, got, want)
	}
	codec := CharacteristicsCodec{}
	v, err := codec.Decode(got)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	dec := v.(Characteristics)
	if utf8Valid && !reflect.DeepEqual(dec, *c) {
		t.Fatalf("%s: decoded Characteristics differ from the original", name)
	}
	var ref refCharacteristics
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatalf("%s: json.Unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(Characteristics(ref), dec) {
		t.Fatalf("%s: codec decode differs from json.Unmarshal", name)
	}
	if !utf8Valid {
		checkCodec(t, name+"/decoded", &dec, true)
		return
	}
	// Re-encoding must also be byte-stable (deterministic map ordering,
	// -0 kept), since parity checks compare serialized results.
	again, err := codec.Encode(dec)
	if err != nil {
		t.Fatalf("%s: re-encode: %v", name, err)
	}
	if !bytes.Equal(again, got) {
		t.Fatalf("%s: re-encoded record differs from the first encoding", name)
	}
}

// TestCodecRoundTripBitIdentical: the store codec must reproduce real
// simulated Characteristics exactly, on every tier and scenario shape —
// decoded records stand in for simulations, so any drift would poison
// every downstream analysis — and its bytes must be json.Marshal's, so
// records written before the codec was hand-written read back
// bit-identically and digests of served results do not move.
func TestCodecRoundTripBitIdentical(t *testing.T) {
	var paper []profile.Pair
	for _, size := range []profile.InputSize{profile.Test, profile.Train, profile.Ref} {
		paper = append(paper, profile.ExpandSuite(profile.CPU2017(), size)...)
	}
	paper = append(paper, profile.ExpandSuite(profile.CPU2006(), profile.Ref)...)
	mcf := profile.CPU2017()[2].Expand(profile.Ref)[:1] // 505.mcf_r
	scenario := func(s string) Scenario {
		sc, err := ParseScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	tiers := []struct {
		name  string
		pairs []profile.Pair
		opt   Options
	}{
		{"exact/paper-campaign", paper, Options{Instructions: 4000}},
		{"exact/multiplexed", mcf, Options{Instructions: 20000, MultiplexSlots: 4}},
		{"sampled", fakePairs(2), Options{Instructions: 40000, Scenario: scenario("sampling=8192/1024/1024")}},
		{"analytic", paper[:8], Options{Instructions: 20000, Scenario: scenario("analytic")}},
		{"pairwindows=2", mcf, Options{Instructions: 80000, Scenario: scenario("j-pair=2")}},
		{"rate=2", mcf, Options{Instructions: 8000, Scenario: scenario("rate=2")}},
		{"1P1E-random", mcf, Options{Instructions: 8000, Scenario: scenario("topo=1P1E-random")}},
	}
	var sample Characteristics
	for _, tier := range tiers {
		chars, err := Characterize(tier.pairs, tier.opt)
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		for i := range chars {
			checkCodec(t, tier.name+"/"+chars[i].Pair.Name(), &chars[i], true)
		}
		switch tier.name {
		case "sampled":
			if chars[0].Sampling == nil || chars[0].Sampling.Windows == 0 {
				t.Fatalf("sampled tier carries no sampling windows: %+v", chars[0].Sampling)
			}
		case "rate=2":
			if chars[0].Rate == nil {
				t.Fatal("rate tier carries no Rate")
			}
		case "1P1E-random":
			if chars[0].Runtime == nil {
				t.Fatal("topology tier carries no Runtime")
			}
			sample = chars[0]
		}
	}

	// Edge values a real run does not produce, each on a deep copy of a
	// record that carries every optional part.
	sample.Rate = &RateStats{Copies: 2, AggregateIPC: 1.5, PerCopyIPC: []float64{0.7, 0.8}}
	sample.Sampling = &machine.SamplingStats{Period: 8192, DetailLen: 1024, Windows: 3}
	edges := []struct {
		name string
		edit func(c *Characteristics)
	}{
		{"tiny-float", func(c *Characteristics) { c.IPC = 1e-7; c.Pair.Model.MLP = 9.999e-7 }},
		{"huge-float", func(c *Characteristics) { c.ExecSeconds = 1e21; c.Breakdown.Base = 1.5e300 }},
		{"negative-zero", func(c *Characteristics) { c.LoadPct = math.Copysign(0, -1) }},
		{"max-seed", func(c *Characteristics) { c.Pair.Model.Seed = math.MaxUint64 }},
		{"nil-app", func(c *Characteristics) { c.Pair.App = nil }},
		{"nil-counters", func(c *Characteristics) { c.Counters = nil }},
		{"nil-sampling", func(c *Characteristics) { c.Sampling = nil }},
		{"nil-vs-empty-inputs", func(c *Characteristics) {
			c.Pair.App.RefInputs, c.Pair.App.TestInputs, c.Pair.App.TrainInputs = nil, []string{}, []string{"in1"}
		}},
		{"empty-rate-and-modes", func(c *Characteristics) {
			c.Rate.PerCopyIPC = []float64{}
			c.Runtime.Modes = []RuntimeMode{}
		}},
		{"nil-rate-slices", func(c *Characteristics) { c.Rate.PerCopyIPC = nil; c.Runtime.Modes = nil }},
		{"html-and-separators", func(c *Characteristics) {
			c.Pair.App.Name = "<a&b>" + string(rune(0x2028)) + string(rune(0x2029)) + "\"q\"\t\x01\x7f"
			c.Runtime.Topology = "\u00e9\U0001F600/"
		}},
		{"invalid-utf8", func(c *Characteristics) { c.Pair.Input = "in\xffput\xc3" }},
		{"nan-top-level", func(c *Characteristics) { c.IPC = math.NaN() }},
		{"nan-nested", func(c *Characteristics) { c.Pair.Model.Mix.Call = math.NaN() }},
		{"inf-slice", func(c *Characteristics) { c.Rate.PerCopyIPC[1] = math.Inf(1) }},
		{"nan-counters", func(c *Characteristics) {
			c.Counters = perf.NewCounters(map[string]uint64{perf.InstRetired: 1}, 1, 2, math.NaN())
		}},
	}
	for _, e := range edges {
		c := cloneCharacteristics(t, &sample)
		e.edit(&c)
		checkCodec(t, e.name, &c, e.name != "invalid-utf8")
		if strings.HasPrefix(e.name, "nan") || strings.HasPrefix(e.name, "inf") {
			if _, err := c.AppendJSON(nil); err == nil {
				t.Errorf("%s: AppendJSON accepted a non-finite float", e.name)
			}
		}
	}
}

// cloneCharacteristics deep-copies c through the reflection reference.
func cloneCharacteristics(t *testing.T, c *Characteristics) Characteristics {
	t.Helper()
	data, err := json.Marshal((*refCharacteristics)(c))
	if err != nil {
		t.Fatal(err)
	}
	var out refCharacteristics
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return Characteristics(out)
}

// TestCodecFieldCoverage fills every exported field of Characteristics
// and of every struct it nests with distinct non-zero values (non-nil
// pointers and slices) and checks byte identity and the round trip, so
// a field added to the record without adding it to codec.go fails here.
func TestCodecFieldCoverage(t *testing.T) {
	var c Characteristics
	n := 0
	fillValue(reflect.ValueOf(&c).Elem(), &n)
	checkCodec(t, "filled", &c, true)
	if n < 100 {
		t.Fatalf("filled only %d leaf fields", n)
	}
}

// fillValue sets v, and everything reachable from it, to non-zero
// values numbered by *n.
func fillValue(v reflect.Value, n *int) {
	if v.Type() == reflect.TypeOf((*perf.Counters)(nil)) {
		*n++
		v.Set(reflect.ValueOf(perf.NewCounters(map[string]uint64{
			perf.InstRetired: uint64(*n), perf.DTLBWalks: 7}, 11, 12, 0.125)))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillValue(v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillValue(v.Index(0), n)
		fillValue(v.Index(1), n)
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Int:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint64:
		*n++
		v.SetUint(uint64(*n) << 40)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d<&>", *n))
	case reflect.Bool:
		*n++
		v.SetBool(true)
	default:
		panic(fmt.Sprintf("fillValue: no filler for %s; teach it and codec.go the new field", v.Type()))
	}
}

// TestCodecAllocs gates the codec's allocation counts, so a slide back
// to reflection fails on any host — a count, not a time. Encoding into
// a buffer with spare capacity allocates at most once per record
// (encoding/json took 46). A store decode (CharacteristicsCodec.Decode)
// takes 3 today and is held to 12: encoding/json took 82, and still
// takes 17 when it reflects over the record but leaves perf.Counters to
// its own codec.
func TestCodecAllocs(t *testing.T) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	c, err := CharacterizePair(pair, Options{Instructions: 20000})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64<<10)
	enc := testing.AllocsPerRun(100, func() {
		if _, err := c.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 {
		t.Errorf("AppendJSON allocates %.0f times per record, want <= 1", enc)
	}
	data, err := c.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := testing.AllocsPerRun(100, func() {
		if _, err := (CharacteristicsCodec{}).Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if dec > 12 {
		t.Errorf("decoding one record allocates %.0f times, want <= 12", dec)
	}
	t.Logf("allocs per record: encode %.0f, decode %.0f", enc, dec)
}

// FuzzCharacteristicsDecode: the record decoder never panics on
// arbitrary bytes, and any input it accepts re-encodes to bytes that
// decode to an equal value.
func FuzzCharacteristicsDecode(f *testing.F) {
	pair := profile.CPU2017()[2].Expand(profile.Ref)[0]
	c, err := CharacterizePair(pair, Options{Instructions: 4000, Scenario: Scenario{RateCopies: 2}})
	if err != nil {
		f.Fatal(err)
	}
	record, err := c.AppendJSON(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(record)
	for _, n := range []int{0, 1, 10, len(record) / 3, len(record) / 2, len(record) - 1} {
		f.Add(record[:n])
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(record, &members); err != nil {
		f.Fatal(err)
	}
	reordered, err := json.Marshal(members) // keys now in sorted order
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reordered)
	f.Add([]byte(` { "Pair" : null , "Counters" : { "values" : null } , "Extra" : [ 1 , { } , "x" ] } `))
	// The event map: a name that is not an event must be rejected, a
	// partial map decodes with zeros and a repeated name keeps its last
	// count.
	f.Add([]byte(`{"Counters":{"values":{"inst_retired.any":1,"custom<event>":7}}}`))
	f.Add([]byte(`{"Counters":{"values":{"uops_retired.all":9,"icache.misses":2},"seconds":0.5}}`))
	f.Add([]byte(`{"Counters":{"values":{"icache.misses":2,"icache.misses":3}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Characteristics
		if c.UnmarshalJSON(data) != nil {
			return
		}
		enc, err := c.AppendJSON(nil)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		var again Characteristics
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("round trip changed the value:\n%s", enc)
		}
	})
}

func TestCodecRejectsForeignType(t *testing.T) {
	if _, err := (CharacteristicsCodec{}).Encode(42); err == nil {
		t.Fatal("encoded a non-Characteristics value")
	}
	if _, err := (CharacteristicsCodec{}).Decode([]byte("{")); err == nil {
		t.Fatal("decoded truncated JSON")
	}
}

// TestStoreServesSecondCampaign: a campaign run against a persistent
// store, then re-run with a fresh memory cache on the same directory
// (what a second process does), must be served entirely from the store
// — zero simulations — and bit-identically.
func TestStoreServesSecondCampaign(t *testing.T) {
	dir := t.TempDir()
	var rateInt []*profile.Profile
	for _, p := range profile.CPU2017() {
		if p.Suite == profile.RateInt {
			rateInt = append(rateInt, p)
		}
	}
	pairs := profile.ExpandSuite(rateInt, profile.Train)

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Instructions: 20000, Store: st1}
	first, err := Characterize(pairs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if w := st1.Stats().Writes; w != uint64(len(pairs)) {
		t.Fatalf("store writes = %d, want %d", w, len(pairs))
	}

	// Second "process": fresh handle, fresh memory tier, a simulation
	// counter that must stay at zero.
	var simulated atomic.Int64
	stubRunPair(t, func(ctx context.Context, pair profile.Pair, o Options) (*Characteristics, error) {
		simulated.Add(1)
		return characterizePairCtx(ctx, pair, o)
	})
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := sched.NewCache()
	var last sched.Progress
	opt2 := Options{Instructions: 20000, Store: st2, Cache: cache,
		Progress: func(p sched.Progress) { last = p }}
	second, err := Characterize(pairs, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 0 {
		t.Errorf("second campaign simulated %d pairs, want 0", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("store-served results are not bit-identical to simulated results")
	}
	if last.CacheHits != len(pairs) || last.StoreHits != len(pairs) {
		t.Errorf("progress = %+v, want all %d pairs from the store tier", last, len(pairs))
	}
	if s := cache.Stats(); s.StoreHits != uint64(len(pairs)) || s.MemoryHits != 0 {
		t.Errorf("cache stats = %+v, want store-tier hits only", s)
	}
}

// TestCorruptStoreRecordRecomputes: damaging a record forces exactly
// that pair back through the simulator; the recomputation repairs the
// store and the results stay identical.
func TestCorruptStoreRecordRecomputes(t *testing.T) {
	dir := t.TempDir()
	pairs := fakePairs(4)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Instructions: 20000, Store: st}
	first, err := Characterize(pairs, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Tear every record inside its segment, as a crash mid-write leaves
	// a file whose length grew before its data landed: the last
	// two-thirds of each payload read as zeros.
	damaged := 0
	for _, key := range st.Keys() {
		rec, ok := st.Load(key)
		if !ok {
			t.Fatalf("record %s does not load", key)
		}
		damaged += tearRecords(t, dir, rec)
	}
	if damaged != len(pairs) {
		t.Fatalf("damaged %d records, want %d", damaged, len(pairs))
	}

	var simulated atomic.Int64
	stubRunPair(t, func(ctx context.Context, pair profile.Pair, o Options) (*Characteristics, error) {
		simulated.Add(1)
		return characterizePairCtx(ctx, pair, o)
	})
	st2, _ := store.Open(dir)
	second, err := Characterize(pairs, Options{Instructions: 20000, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != int64(len(pairs)) {
		t.Errorf("recomputed %d pairs, want %d", n, len(pairs))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("recomputed results differ")
	}
	if got := st2.Stats().Corrupt; got != uint64(len(pairs)) {
		t.Errorf("corrupt counter = %d, want %d", got, len(pairs))
	}

	// Third run: the write-through repaired every record.
	var resimulated atomic.Int64
	stubRunPair(t, func(ctx context.Context, pair profile.Pair, o Options) (*Characteristics, error) {
		resimulated.Add(1)
		return characterizePairCtx(ctx, pair, o)
	})
	st3, _ := store.Open(dir)
	third, err := Characterize(pairs, Options{Instructions: 20000, Store: st3})
	if err != nil {
		t.Fatal(err)
	}
	if n := resimulated.Load(); n != 0 {
		t.Errorf("third campaign simulated %d pairs after repair, want 0", n)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("repaired results differ")
	}
}

// tearRecords zeroes the last two-thirds of every copy of payload in the
// store's segments under dir and returns how many it found. Records keep
// their payload bytes verbatim, so the payload locates its record.
func tearRecords(t *testing.T, dir string, payload []byte) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; ; {
			i := bytes.Index(data[off:], payload)
			if i < 0 {
				break
			}
			i += off
			clear(data[i+len(payload)/3 : i+len(payload)])
			off = i + len(payload)
			n++
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestUnknownEventRecordRecomputes: a stored record whose checksum holds
// but whose counters name an event the simulator does not record fails
// to decode, so the pair is simulated again rather than served.
func TestUnknownEventRecordRecomputes(t *testing.T) {
	dir := t.TempDir()
	pairs := fakePairs(2)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Characterize(pairs, Options{Instructions: 20000, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	renamed := 0
	for _, key := range st.Keys() {
		rec, ok := st.Load(key)
		if !ok {
			t.Fatalf("record %s does not load", key)
		}
		st.Store(key, bytes.Replace(rec, []byte(`"icache.misses"`), []byte(`"icache.misses_other"`), 1))
		renamed++
	}
	if renamed != len(pairs) {
		t.Fatalf("rewrote %d records, want %d", renamed, len(pairs))
	}

	var simulated atomic.Int64
	stubRunPair(t, func(ctx context.Context, pair profile.Pair, o Options) (*Characteristics, error) {
		simulated.Add(1)
		return characterizePairCtx(ctx, pair, o)
	})
	st2, _ := store.Open(dir)
	second, err := Characterize(pairs, Options{Instructions: 20000, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != int64(len(pairs)) {
		t.Errorf("recomputed %d pairs, want %d", n, len(pairs))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("recomputed results differ")
	}
}

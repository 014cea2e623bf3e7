package machine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/perf"
	"repro/internal/synth"
)

// configVariants is a matrix of configurations covering every component
// spec the JSON form supports.
func configVariants() map[string]Config {
	variants := map[string]Config{
		"haswell":        Haswell(),
		"haswell-scaled": HaswellScaled(),
	}
	srrip := HaswellScaled()
	srrip.Name = "scaled-srrip-l3"
	srrip.Hierarchy.L3.Policy = "srrip"
	variants["srrip-l3"] = srrip

	plru := HaswellScaled()
	plru.Name = "scaled-plru-l2"
	plru.Hierarchy.L2.Policy = "plru"
	variants["plru-l2"] = plru

	random := HaswellScaled()
	random.Name = "scaled-random-l3"
	random.Hierarchy.L3.Policy = "random:seed=42"
	variants["random-l3"] = random

	pf := HaswellScaled()
	pf.Name = "scaled-stride-pf"
	pf.Hierarchy.Prefetcher = "stride:64:2"
	variants["stride-pf"] = pf

	nl := HaswellScaled()
	nl.Name = "scaled-nextline-pf"
	nl.Hierarchy.Prefetcher = "nextline:64:1"
	variants["nextline-pf"] = nl

	for name, spec := range map[string]branch.Spec{
		"static":          "static-taken",
		"bimodal":         "bimodal:12",
		"gshare":          "gshare:14:12",
		"two-level-local": "two-level-local:10:10",
		"tournament":      "tournament:13",
		"perceptron":      "perceptron:10:24",
		"tage":            "tage:11",
	} {
		c := HaswellScaled()
		c.Name = "scaled-" + name
		c.Predictor = spec
		variants["pred-"+name] = c
	}
	return variants
}

// TestConfigJSONFingerprintStable is the satellite's acceptance gate: a
// configuration that round-trips through JSON keeps its exact
// fingerprint — and therefore derives the same result-cache content
// keys — and re-encodes to identical bytes.
func TestConfigJSONFingerprintStable(t *testing.T) {
	for name, cfg := range configVariants() {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Config
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("unmarshal: %v\n%s", err, data)
			}
			if got.Fingerprint() != cfg.Fingerprint() {
				t.Errorf("fingerprint drifted across the JSON round-trip:\n got %s\nwant %s",
					got.Fingerprint(), cfg.Fingerprint())
			}
			again, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(again) != string(data) {
				t.Errorf("re-encoded bytes differ:\n got %s\nwant %s", again, data)
			}
		})
	}
}

// TestConfigJSONValidatesOnDecode: a structurally well-formed document
// describing an invalid machine is rejected at decode time.
func TestConfigJSONValidatesOnDecode(t *testing.T) {
	base, err := json.Marshal(HaswellScaled())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(m map[string]json.RawMessage){
		"zero-clock": func(m map[string]json.RawMessage) {
			m["clock_hz"] = json.RawMessage("0")
		},
		"bad-line": func(m map[string]json.RawMessage) {
			var l map[string]any
			json.Unmarshal(m["l3"], &l)
			l["line_bytes"] = 48 // not a power of two
			raw, _ := json.Marshal(l)
			m["l3"] = raw
		},
		"unknown-field": func(m map[string]json.RawMessage) {
			m["l4"] = json.RawMessage(`{}`)
		},
		"unknown-policy": func(m map[string]json.RawMessage) {
			var l map[string]any
			json.Unmarshal(m["l3"], &l)
			l["policy"] = "mru"
			raw, _ := json.Marshal(l)
			m["l3"] = raw
		},
		"unknown-predictor": func(m map[string]json.RawMessage) {
			m["predictor"] = json.RawMessage(`"neural:9000"`)
		},
		"bad-prefetcher": func(m map[string]json.RawMessage) {
			m["prefetcher"] = json.RawMessage(`"markov:1:2"`)
		},
		"huge-prefetch-degree": func(m map[string]json.RawMessage) {
			m["prefetcher"] = json.RawMessage(`"nextline:64:1000000000"`)
		},
		"prefetch-line": func(m map[string]json.RawMessage) {
			m["prefetcher"] = json.RawMessage(`"stride:48:2"`)
		},
		"oversize-predictor": func(m map[string]json.RawMessage) {
			m["predictor"] = json.RawMessage(`"perceptron:24:64"`)
		},
		"plru-6-ways": func(m map[string]json.RawMessage) {
			m["l2"] = json.RawMessage(`{"name":"l2","size_bytes":196608,"ways":6,"line_bytes":64,"policy":"plru"}`)
		},
		"huge-cache": func(m map[string]json.RawMessage) {
			m["l3"] = json.RawMessage(`{"name":"l3","size_bytes":1099511627776,"ways":16,"line_bytes":64}`)
		},
		"huge-ras": func(m map[string]json.RawMessage) {
			m["ras_depth"] = json.RawMessage(`1000000000000`)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(base, &m); err != nil {
				t.Fatal(err)
			}
			mutate(m)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var cfg Config
			if err := json.Unmarshal(raw, &cfg); err == nil {
				t.Fatalf("decode accepted an invalid config: %s", raw)
			}
		})
	}
}

func TestApplyAxis(t *testing.T) {
	base := HaswellScaled()
	got, err := ApplyAxis(base, "l3.size", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hierarchy.L3.SizeBytes != 4<<20 {
		t.Errorf("l3.size = %d, want %d", got.Hierarchy.L3.SizeBytes, 4<<20)
	}
	if base.Hierarchy.L3.SizeBytes != 2<<20 {
		t.Error("ApplyAxis mutated the base config")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("swept config does not validate: %v", err)
	}

	got, err = ApplyAxis(base, "line", 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []cache.Config{
		got.Hierarchy.L1I, got.Hierarchy.L1D, got.Hierarchy.L2, got.Hierarchy.L3,
	} {
		if l.LineBytes != 128 {
			t.Errorf("level %s line = %d, want 128", l.Name, l.LineBytes)
		}
	}

	if _, err := ApplyAxis(base, "l5.size", 1024); err == nil ||
		!strings.Contains(err.Error(), "unknown axis parameter") {
		t.Errorf("unknown param error = %v", err)
	}
	if _, err := ApplyAxis(base, "l3.ways", 0); err == nil {
		t.Error("non-positive axis value accepted")
	}

	// Distinct axis values must yield distinct fingerprints (distinct
	// result-cache keyspaces), or a sweep would alias its cells.
	a, _ := ApplyAxis(base, "l3.ways", 8)
	b, _ := ApplyAxis(base, "l3.ways", 16)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different axis values share a fingerprint")
	}
}

// TestApplyAxisLinePrefetcher checks that the line axis moves a
// configured prefetcher to the new line size: a 64-byte nextline
// prefetcher on 128-byte lines would fetch within the missing line and
// leave the L2 misses exactly those of no prefetcher.
func TestApplyAxisLinePrefetcher(t *testing.T) {
	pf := HaswellScaled()
	pf.Hierarchy.Prefetcher = "nextline:64:1"
	got, err := ApplyAxis(pf, "line", 128)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hierarchy.Prefetcher != "nextline:128:1" {
		t.Errorf("line=128 prefetcher = %q, want nextline:128:1", got.Hierarchy.Prefetcher)
	}
	none, err := ApplyAxis(HaswellScaled(), "line", 128)
	if err != nil {
		t.Fatal(err)
	}
	if none.Hierarchy.Prefetcher != "" {
		t.Errorf("line=128 without a prefetcher = %q, want none", none.Hierarchy.Prefetcher)
	}
	if _, err := ApplyAxis(pf, "line", 96); err == nil {
		t.Error("line=96 accepted for a configured prefetcher")
	}
	l2Misses := func(cfg Config) uint64 {
		gen, err := synth.New(testModel(), cfg.Geometry())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, gen, Options{Instructions: 200000, WarmupInstructions: gen.Prologue()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.MustValue(perf.L2Miss)
	}
	if a, b := l2Misses(got), l2Misses(none); a == b {
		t.Errorf("line=128: nextline prefetcher leaves L2 misses at %d, the same as no prefetcher", a)
	}
}

// FuzzConfigJSON feeds arbitrary bytes to Config's JSON decoder: it must
// never panic, every config it accepts must re-encode and decode back to
// the same Fingerprint, each component spec must parse back from its
// String, and the config must build — every cache, the hierarchy with
// its prefetcher, and the predictor — so a decoded Config is runnable.
func FuzzConfigJSON(f *testing.F) {
	for _, c := range []Config{Haswell(), HaswellScaled()} {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Predictor specs whose tables would not fit in memory must be
		// rejected at decode, before anything builds one.
		for _, spec := range []string{"two-level-local:1:40", "perceptron:24:64"} {
			f.Add(bytes.Replace(b, []byte(`"btb_bits"`), []byte(`"predictor":"`+spec+`","btb_bits"`), 1))
		}
	}
	base, err := json.Marshal(HaswellScaled())
	if err != nil {
		f.Fatal(err)
	}
	with := func(old, new string) []byte { return bytes.Replace(base, []byte(old), []byte(new), 1) }
	// Every spec kind, then the rejections: plru on a 6-way level,
	// oversize predictors and an unbounded prefetch degree.
	for _, p := range append(cache.Policies(), "lru", "random", "random:seed=7", "plru:2") {
		f.Add(with(`"line_bytes":64}`, `"line_bytes":64,"policy":"`+string(p)+`"}`))
	}
	for _, p := range append(branch.Predictors(), "static", "tournament:13[gshare:13:13,two-level-local:12:12]",
		"tage:11:5,15,44,64[bimodal:13]", "bimodal:25", "gshare:25:12", "tournament:25", "tage:21") {
		f.Add(with(`"btb_bits"`, `"predictor":"`+string(p)+`","btb_bits"`))
	}
	for _, p := range []string{"none", "nextline:64:1", "stride:64:2", "nextline:64:1000000000", "stride:3:2"} {
		f.Add(with(`"btb_bits"`, `"prefetcher":"`+p+`","btb_bits"`))
	}
	f.Add(with(`"l2":{"name":"l2","size_bytes":262144,"ways":8`, `"l2":{"name":"l2","size_bytes":196608,"ways":6,"policy":"plru"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil {
			return
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("decoded config does not re-encode: %v", err)
		}
		var back Config
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-encoded config does not decode: %v\n%s", err, b)
		}
		if got, want := back.Fingerprint(), c.Fingerprint(); got != want {
			t.Fatalf("fingerprint changed across a round trip:\n%s\n%s", want, got)
		}
		h := c.Hierarchy
		for _, l := range []cache.Config{h.L1I, h.L1D, h.L2, h.L3} {
			if p, err := cache.ParsePolicy(l.Policy.String()); err != nil || p != l.Policy {
				t.Fatalf("policy %q does not parse back from %q: %q, %v", l.Policy, l.Policy.String(), p, err)
			}
			cache.New(l)
		}
		if p, err := cache.ParsePrefetcher(h.Prefetcher.String()); err != nil || p != h.Prefetcher {
			t.Fatalf("prefetcher %q does not parse back from %q: %q, %v", h.Prefetcher, h.Prefetcher.String(), p, err)
		}
		if p, err := branch.ParseSpec(c.Predictor.String()); err != nil || p != c.Predictor {
			t.Fatalf("predictor %q does not parse back from %q: %q, %v", c.Predictor, c.Predictor.String(), p, err)
		}
		cache.NewHierarchy(h)
		c.Predictor.New()
	})
}

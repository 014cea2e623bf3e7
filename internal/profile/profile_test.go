package profile

import (
	"math"
	"strings"
	"testing"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range append(CPU2017(), CPU2006()...) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestCPU2017Counts(t *testing.T) {
	apps := CPU2017()
	if len(apps) != 43 {
		t.Fatalf("CPU2017 app count = %d, want 43", len(apps))
	}
	counts := map[Suite]int{}
	for _, a := range apps {
		counts[a.Suite]++
	}
	want := map[Suite]int{RateInt: 10, RateFP: 13, SpeedInt: 10, SpeedFP: 10}
	for s, w := range want {
		if counts[s] != w {
			t.Errorf("%v count = %d, want %d", s, counts[s], w)
		}
	}
}

func TestCPU2006Counts(t *testing.T) {
	apps := CPU2006()
	if len(apps) != 29 {
		t.Fatalf("CPU2006 app count = %d, want 29", len(apps))
	}
	counts := map[Suite]int{}
	for _, a := range apps {
		counts[a.Suite]++
	}
	if counts[CPU06Int] != 12 || counts[CPU06FP] != 17 {
		t.Errorf("CPU06 split = %d int / %d fp, want 12/29", counts[CPU06Int], counts[CPU06FP])
	}
}

// TestPairTotals asserts the paper's Section II pair counts: 69 test, 61
// train, 64 ref — 194 in total.
func TestPairTotals(t *testing.T) {
	apps := CPU2017()
	want := map[InputSize]int{Test: 69, Train: 61, Ref: 64}
	total := 0
	for size, w := range want {
		pairs := ExpandSuite(apps, size)
		if len(pairs) != w {
			t.Errorf("%v pairs = %d, want %d", size, len(pairs), w)
		}
		total += len(pairs)
	}
	if total != 194 {
		t.Errorf("total pairs = %d, want 194", total)
	}
}

func TestUniquePairNames(t *testing.T) {
	for _, size := range []InputSize{Test, Train, Ref} {
		seen := map[string]bool{}
		for _, p := range ExpandSuite(CPU2017(), size) {
			if seen[p.Name()] {
				t.Errorf("duplicate pair name %q at %v", p.Name(), size)
			}
			seen[p.Name()] = true
		}
	}
}

func TestPairNameFormat(t *testing.T) {
	apps := CPU2017()
	for _, p := range ExpandSuite(apps, Ref) {
		if p.Input == "" {
			if strings.Contains(p.Name(), "-") {
				t.Errorf("single-input pair name %q contains dash", p.Name())
			}
		} else if !strings.HasSuffix(p.Name(), "-"+p.Input) {
			t.Errorf("pair name %q missing input suffix %q", p.Name(), p.Input)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	a := ExpandSuite(CPU2017(), Ref)
	b := ExpandSuite(CPU2017(), Ref)
	for i := range a {
		if a[i].Model != b[i].Model {
			t.Fatalf("pair %s model differs across expansions", a[i].Name())
		}
	}
}

func TestPerturbationBounded(t *testing.T) {
	for _, p := range CPU2017() {
		for _, pair := range p.Expand(Ref) {
			m := pair.Model
			// Rates stay in range and within a plausible band of the base.
			if m.L1MissPct < 0 || m.L1MissPct > 100 {
				t.Errorf("%s: L1 miss %v out of range", pair.Name(), m.L1MissPct)
			}
			if p.L1MissPct > 0 {
				ratio := m.L1MissPct / p.L1MissPct
				if ratio < 0.7 || ratio > 1.3 {
					t.Errorf("%s: L1 perturbation ratio %v too large", pair.Name(), ratio)
				}
			}
			if m.VSZMiB < m.RSSMiB {
				t.Errorf("%s: VSZ %v < RSS %v", pair.Name(), m.VSZMiB, m.RSSMiB)
			}
		}
	}
}

func TestMultiInputAppsDiffer(t *testing.T) {
	for _, p := range CPU2017() {
		pairs := p.Expand(Ref)
		if len(pairs) < 2 {
			continue
		}
		if pairs[0].Model == pairs[1].Model {
			t.Errorf("%s: first two ref inputs have identical models", p.Name)
		}
	}
}

func TestSizeScalingMonotone(t *testing.T) {
	for _, p := range CPU2017() {
		test := p.Expand(Test)[0].Model
		train := p.Expand(Train)[0].Model
		ref := p.Expand(Ref)[0].Model
		if !(test.InstrBillions < train.InstrBillions && train.InstrBillions < ref.InstrBillions) {
			t.Errorf("%s: instruction counts not monotone: %v %v %v",
				p.Name, test.InstrBillions, train.InstrBillions, ref.InstrBillions)
		}
		if test.RSSMiB > ref.RSSMiB {
			t.Errorf("%s: test RSS %v exceeds ref %v", p.Name, test.RSSMiB, ref.RSSMiB)
		}
	}
}

func TestFilterSuite(t *testing.T) {
	pairs := ExpandSuite(CPU2017(), Ref)
	rate := FilterSuite(pairs, RateInt)
	for _, p := range rate {
		if p.App.Suite != RateInt {
			t.Errorf("FilterSuite leaked %v pair %s", p.App.Suite, p.Name())
		}
	}
	// 10 apps: perlbench 3 + gcc 5 + x264 3 + xz 3 + 6 singles = 20 pairs.
	if len(rate) != 20 {
		t.Errorf("rate int ref pairs = %d, want 20", len(rate))
	}
}

func mean(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// perAppRefMeans averages each app's ref-input models (the paper averages
// counters across inputs before aggregating per suite).
func perAppRefMeans(apps []*Profile, pick func(Model) float64) map[Suite][]float64 {
	out := map[Suite][]float64{}
	for _, a := range apps {
		var vals []float64
		for _, p := range a.Expand(Ref) {
			vals = append(vals, pick(p.Model))
		}
		out[a.Suite] = append(out[a.Suite], mean(vals))
	}
	return out
}

func checkNear(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want) {
		t.Errorf("%s = %.3f, want %.3f (±%.0f%%)", name, got, want, relTol*100)
	}
}

// TestTableIICalibration asserts the suite-average nominal instruction
// counts and target IPCs track the paper's Table II (ref row).
func TestTableIICalibration(t *testing.T) {
	apps := CPU2017()
	instr := perAppRefMeans(apps, func(m Model) float64 { return m.InstrBillions })
	ipc := perAppRefMeans(apps, func(m Model) float64 { return m.TargetIPC })
	checkNear(t, "rate int instr", mean(instr[RateInt]), 1751.516, 0.10)
	checkNear(t, "rate fp instr", mean(instr[RateFP]), 2291.092, 0.10)
	checkNear(t, "speed int instr", mean(instr[SpeedInt]), 2265.182, 0.10)
	checkNear(t, "speed fp instr", mean(instr[SpeedFP]), 21880.115, 0.10)
	checkNear(t, "rate int IPC", mean(ipc[RateInt]), 1.724, 0.08)
	checkNear(t, "rate fp IPC", mean(ipc[RateFP]), 1.635, 0.08)
	checkNear(t, "speed int IPC", mean(ipc[SpeedInt]), 1.635, 0.08)
	checkNear(t, "speed fp IPC", mean(ipc[SpeedFP]), 0.706, 0.15)
}

// TestTableIVCalibration asserts the CPU17 int/fp instruction-mix targets.
func TestTableIVCalibration(t *testing.T) {
	apps := CPU2017()
	loads := perAppRefMeans(apps, func(m Model) float64 { return m.LoadPct })
	stores := perAppRefMeans(apps, func(m Model) float64 { return m.StorePct })
	branches := perAppRefMeans(apps, func(m Model) float64 { return m.BranchPct })
	intLoads := mean(append(append([]float64{}, loads[RateInt]...), loads[SpeedInt]...))
	fpLoads := mean(append(append([]float64{}, loads[RateFP]...), loads[SpeedFP]...))
	intStores := mean(append(append([]float64{}, stores[RateInt]...), stores[SpeedInt]...))
	fpStores := mean(append(append([]float64{}, stores[RateFP]...), stores[SpeedFP]...))
	intBr := mean(append(append([]float64{}, branches[RateInt]...), branches[SpeedInt]...))
	fpBr := mean(append(append([]float64{}, branches[RateFP]...), branches[SpeedFP]...))
	checkNear(t, "int loads", intLoads, 24.390, 0.10)
	checkNear(t, "fp loads", fpLoads, 26.187, 0.10)
	checkNear(t, "int stores", intStores, 10.341, 0.10)
	checkNear(t, "fp stores", fpStores, 7.136, 0.15)
	checkNear(t, "int branches", intBr, 18.735, 0.10)
	checkNear(t, "fp branches", fpBr, 11.114, 0.20)
}

// TestTableVIICalibration asserts the mispredict-rate targets.
func TestTableVIICalibration(t *testing.T) {
	apps := CPU2017()
	misp := perAppRefMeans(apps, func(m Model) float64 { return m.MispredictPct })
	intM := mean(append(append([]float64{}, misp[RateInt]...), misp[SpeedInt]...))
	fpM := mean(append(append([]float64{}, misp[RateFP]...), misp[SpeedFP]...))
	checkNear(t, "int mispredict", intM, 3.310, 0.15)
	checkNear(t, "fp mispredict", fpM, 1.188, 0.20)
}

// TestCPU2006Calibration asserts the CPU06 aggregates of Tables III–VII.
func TestCPU2006Calibration(t *testing.T) {
	apps := CPU2006()
	ipc := perAppRefMeans(apps, func(m Model) float64 { return m.TargetIPC })
	loads := perAppRefMeans(apps, func(m Model) float64 { return m.LoadPct })
	stores := perAppRefMeans(apps, func(m Model) float64 { return m.StorePct })
	branches := perAppRefMeans(apps, func(m Model) float64 { return m.BranchPct })
	misp := perAppRefMeans(apps, func(m Model) float64 { return m.MispredictPct })
	l2 := perAppRefMeans(apps, func(m Model) float64 { return m.L2MissPct })
	checkNear(t, "cpu06 int IPC", mean(ipc[CPU06Int]), 1.762, 0.08)
	checkNear(t, "cpu06 fp IPC", mean(ipc[CPU06FP]), 1.815, 0.08)
	checkNear(t, "cpu06 int loads", mean(loads[CPU06Int]), 26.234, 0.10)
	checkNear(t, "cpu06 fp loads", mean(loads[CPU06FP]), 23.683, 0.15)
	checkNear(t, "cpu06 int stores", mean(stores[CPU06Int]), 10.311, 0.10)
	checkNear(t, "cpu06 fp stores", mean(stores[CPU06FP]), 7.176, 0.15)
	checkNear(t, "cpu06 int branches", mean(branches[CPU06Int]), 19.055, 0.15)
	checkNear(t, "cpu06 fp branches", mean(branches[CPU06FP]), 10.805, 0.15)
	checkNear(t, "cpu06 int mispredict", mean(misp[CPU06Int]), 2.393, 0.30)
	checkNear(t, "cpu06 fp mispredict", mean(misp[CPU06FP]), 1.971, 0.30)
	checkNear(t, "cpu06 int L2", mean(l2[CPU06Int]), 40.854, 0.15)
	checkNear(t, "cpu06 fp L2", mean(l2[CPU06FP]), 31.914, 0.20)
}

// TestNamedExtremes asserts the values the paper states verbatim for
// specific applications.
func TestNamedExtremes(t *testing.T) {
	byName := map[string]*Profile{}
	for _, p := range CPU2017() {
		byName[p.Name] = p
	}
	cases := []struct {
		app   string
		field string
		get   func(*Profile) float64
		want  float64
	}{
		{"525.x264_r", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 3.024},
		{"625.x264_s", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 3.038},
		{"505.mcf_r", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 0.886},
		{"657.xz_s", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 0.903},
		{"508.namd_r", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 2.265},
		{"628.pop2_s", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 1.642},
		{"549.fotonik3d_r", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 1.117},
		{"619.lbm_s", "IPC", func(p *Profile) float64 { return p.TargetIPC }, 0.062},
		{"505.mcf_r", "branch%", func(p *Profile) float64 { return p.BranchPct }, 31.277},
		{"605.mcf_s", "branch%", func(p *Profile) float64 { return p.BranchPct }, 32.939},
		{"519.lbm_r", "branch%", func(p *Profile) float64 { return p.BranchPct }, 1.198},
		{"619.lbm_s", "branch%", func(p *Profile) float64 { return p.BranchPct }, 3.646},
		{"523.xalancbmk_r", "load%", func(p *Profile) float64 { return p.LoadPct }, 29.151},
		{"605.mcf_s", "load%", func(p *Profile) float64 { return p.LoadPct }, 29.581},
		{"548.exchange2_r", "store%", func(p *Profile) float64 { return p.StorePct }, 15.911},
		{"519.lbm_r", "store%", func(p *Profile) float64 { return p.StorePct }, 13.076},
		{"619.lbm_s", "store%", func(p *Profile) float64 { return p.StorePct }, 13.480},
		{"541.leela_r", "mispredict%", func(p *Profile) float64 { return p.MispredictPct }, 8.656},
		{"641.leela_s", "mispredict%", func(p *Profile) float64 { return p.MispredictPct }, 8.636},
		{"523.xalancbmk_r", "L1 miss%", func(p *Profile) float64 { return p.L1MissPct }, 12.174},
		{"605.mcf_s", "L1 miss%", func(p *Profile) float64 { return p.L1MissPct }, 14.138},
		{"507.cactuBSSN_r", "L1 miss%", func(p *Profile) float64 { return p.L1MissPct }, 19.485},
		{"505.mcf_r", "L2 miss%", func(p *Profile) float64 { return p.L2MissPct }, 65.721},
		{"605.mcf_s", "L2 miss%", func(p *Profile) float64 { return p.L2MissPct }, 77.824},
		{"531.deepsjeng_r", "L3 miss%", func(p *Profile) float64 { return p.L3MissPct }, 67.516},
		{"631.deepsjeng_s", "L3 miss%", func(p *Profile) float64 { return p.L3MissPct }, 68.579},
		{"549.fotonik3d_r", "L2 miss%", func(p *Profile) float64 { return p.L2MissPct }, 71.609},
		{"549.fotonik3d_r", "L3 miss%", func(p *Profile) float64 { return p.L3MissPct }, 66.291},
		{"654.roms_s", "load%", func(p *Profile) float64 { return p.LoadPct }, 11.504},
		{"654.roms_s", "store%", func(p *Profile) float64 { return p.StorePct }, 0.895},
		{"548.exchange2_r", "RSS MiB", func(p *Profile) float64 { return p.RSSMiB }, 1.148},
	}
	for _, c := range cases {
		p, ok := byName[c.app]
		if !ok {
			t.Errorf("app %s missing", c.app)
			continue
		}
		if got := c.get(p); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s %s = %v, want %v (paper)", c.app, c.field, got, c.want)
		}
	}
	// 657.xz_s has the largest footprint: ~12.385 GiB RSS, 15.422 GiB VSZ.
	xz := byName["657.xz_s"]
	if xz.RSSMiB < 12000 || xz.RSSMiB > 13000 {
		t.Errorf("657.xz_s RSS %v MiB, want ~12682", xz.RSSMiB)
	}
}

// TestSpeedVsRateFootprint checks the paper's claim that speed suites have
// roughly 8x the RSS of the rate suites.
func TestSpeedVsRateFootprint(t *testing.T) {
	apps := CPU2017()
	rss := perAppRefMeans(apps, func(m Model) float64 { return m.RSSMiB })
	rate := mean(append(append([]float64{}, rss[RateInt]...), rss[RateFP]...))
	speed := mean(append(append([]float64{}, rss[SpeedInt]...), rss[SpeedFP]...))
	ratio := speed / rate
	if ratio < 5 || ratio > 12 {
		t.Errorf("speed/rate RSS ratio = %.2f, want ~8.3", ratio)
	}
}

func TestInputsHelper(t *testing.T) {
	if got := inputs(1); got != nil {
		t.Errorf("inputs(1) = %v, want nil", got)
	}
	got := inputs(3)
	want := []string{"in1", "in2", "in3"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("inputs(3)[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	base := CPU2017()[0]
	mutations := []func(p *Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.InstrBillions = 0 },
		func(p *Profile) { p.TargetIPC = -1 },
		func(p *Profile) { p.LoadPct = 80; p.StorePct = 30 },
		func(p *Profile) { p.BranchPct = 70 },
		func(p *Profile) { p.Mix.Cond = 0 },
		func(p *Profile) { p.MispredictPct = 120 },
		func(p *Profile) { p.RSSMiB = 0 },
		func(p *Profile) { p.VSZMiB = p.RSSMiB / 2 },
		func(p *Profile) { p.MLP = 0.5 },
		func(p *Profile) { p.CodeKiB = 0 },
		func(p *Profile) { p.Threads = 0 },
	}
	for i, mut := range mutations {
		p := *base // copy
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSuiteString(t *testing.T) {
	for s := RateInt; s < numSuites; s++ {
		if s.String() == "" || strings.HasPrefix(s.String(), "Suite(") {
			t.Errorf("suite %d has no name", int(s))
		}
	}
	for sz := Test; sz < numInputSizes; sz++ {
		if sz.String() == "" || strings.HasPrefix(sz.String(), "InputSize(") {
			t.Errorf("size %d has no name", int(sz))
		}
	}
}

// TestParseNames: the suite, mini-suite and size parsers accept every
// spelling the CLIs and specserved take (any case, empty = default) and
// reject unknown names.
func TestParseNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		apps int
	}{
		{"cpu2017", 43}, {"CPU17", 43}, {"", 43}, {"cpu2006", 29}, {"cpu06", 29},
	} {
		apps, err := ParseSuite(tc.name)
		if err != nil || len(apps) != tc.apps {
			t.Errorf("ParseSuite(%q) = %d apps, %v; want %d", tc.name, len(apps), err, tc.apps)
		}
	}
	for _, tc := range []struct {
		name string
		apps int
	}{
		{"all", 43}, {"", 43}, {"rate-int", 10}, {"rate-fp", 13}, {"speed-int", 10}, {"speed-fp", 10},
	} {
		apps, err := FilterMini(CPU2017(), tc.name)
		if err != nil || len(apps) != tc.apps {
			t.Errorf("FilterMini(%q) = %d apps, %v; want %d", tc.name, len(apps), err, tc.apps)
		}
	}
	for _, tc := range []struct {
		name string
		size InputSize
	}{
		{"test", Test}, {"train", Train}, {"ref", Ref}, {"REF", Ref}, {"", Ref},
	} {
		size, err := ParseSize(tc.name)
		if err != nil || size != tc.size {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", tc.name, size, err, tc.size)
		}
	}
	if _, err := ParseSuite("spec95"); err == nil {
		t.Error("unknown suite accepted")
	}
	if _, err := FilterMini(CPU2017(), "rate-complex"); err == nil {
		t.Error("unknown mini-suite accepted")
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("unknown input size accepted")
	}
}

package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the splitmix64 reference
	// implementation.
	s := NewSplitMix64(1234567)
	got := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d: got %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestPCG32Deterministic(t *testing.T) {
	a := NewPCG32(7)
	b := NewPCG32(7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestPCG32SeedsDiffer(t *testing.T) {
	a := NewPCG32(1)
	b := NewPCG32(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	p := NewPCG32(99)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	p := NewPCG32(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += p.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	p := NewPCG32(11)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[p.Intn(buckets)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewPCG32(1).Intn(0)
}

func TestUint64nBounds(t *testing.T) {
	p := NewPCG32(3)
	quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := p.Uint64n(n)
		return v < n
	}, &quick.Config{MaxCount: 2000})
}

func TestNormFloat64Moments(t *testing.T) {
	p := NewPCG32(21)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := p.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	p := NewPCG32(13)
	const prob = 0.25
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += p.Geometric(prob)
	}
	mean := float64(sum) / n
	want := (1 - prob) / prob // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricOne(t *testing.T) {
	p := NewPCG32(13)
	for i := 0; i < 100; i++ {
		if v := p.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) did not panic")
		}
	}()
	NewPCG32(1).Geometric(0)
}

func TestCategoricalFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c := NewCategorical(weights)
	p := NewPCG32(17)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[c.Sample(p)]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalSingle(t *testing.T) {
	c := NewCategorical([]float64{5})
	p := NewPCG32(1)
	for i := 0; i < 100; i++ {
		if c.Sample(p) != 0 {
			t.Fatal("single-category sampler returned nonzero index")
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c := NewCategorical([]float64{1, 0, 1})
	p := NewPCG32(23)
	for i := 0; i < 50000; i++ {
		if c.Sample(p) == 1 {
			t.Fatal("zero-weight category was sampled")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {-1, 2}, {0, 0}, {math.NaN()}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCategorical(%v) did not panic", w)
				}
			}()
			NewCategorical(w)
		}()
	}
}

func TestCategoricalPropertyValidIndex(t *testing.T) {
	p := NewPCG32(31)
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		any := false
		for i, b := range raw {
			weights[i] = float64(b)
			if b > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		c := NewCategorical(weights)
		for i := 0; i < 20; i++ {
			idx := c.Sample(p)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.0)
	p := NewPCG32(41)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[z.Sample(p)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[50] {
		t.Errorf("zipf counts not monotonically skewed: c0=%d c10=%d c50=%d",
			counts[0], counts[10], counts[50])
	}
}

func TestZipfUniformWhenZeroExponent(t *testing.T) {
	z := NewZipf(10, 0)
	p := NewPCG32(43)
	const n = 100000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[z.Sample(p)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}

func BenchmarkPCG32Uint32(b *testing.B) {
	p := NewPCG32(1)
	for i := 0; i < b.N; i++ {
		p.Uint32()
	}
}

func BenchmarkCategoricalSample(b *testing.B) {
	c := NewCategorical([]float64{10, 20, 5, 40, 25})
	p := NewPCG32(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sample(p)
	}
}

func TestFillMatchesUint32(t *testing.T) {
	// Fill must be bit-identical to successive Uint32 calls — including
	// the sub-8 scalar path, non-multiple-of-4 tails, and the generator
	// state left behind — for any split of the stream between the two.
	for _, n := range []int{0, 1, 3, 7, 8, 9, 12, 15, 64, 257, 1000} {
		ref := NewPCG32(42)
		got := NewPCG32(42)
		// Offset the split point so Fill starts mid-stream too.
		ref.Uint32()
		got.Uint32()
		buf := make([]uint32, n)
		got.Fill(buf)
		for i := 0; i < n; i++ {
			if want := ref.Uint32(); buf[i] != want {
				t.Fatalf("Fill(%d): value %d = %#x, want %#x", n, i, buf[i], want)
			}
		}
		if got.Uint32() != ref.Uint32() {
			t.Fatalf("Fill(%d): generator state diverged after fill", n)
		}
	}
}

func TestAdvanceMatchesSteps(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 17, 255, 1 << 12, 999999} {
		ref := NewPCG32(7)
		got := NewPCG32(7)
		for i := uint64(0); i < n; i++ {
			ref.Uint32()
		}
		got.Advance(n)
		if ref.Uint32() != got.Uint32() {
			t.Fatalf("Advance(%d) diverged from %d Uint32 steps", n, n)
		}
	}
}

func TestAdvanceRewinds(t *testing.T) {
	// A wrapped "negative" delta must undo a forward advance exactly;
	// buffered consumers rely on this to return unconsumed draws.
	for _, n := range []uint64{1, 5, 512, 100000} {
		ref := NewPCG32(99)
		got := NewPCG32(99)
		got.Advance(n)
		got.Advance(0 - n)
		if ref.Uint32() != got.Uint32() {
			t.Fatalf("Advance(%d) then Advance(-%d) is not the identity", n, n)
		}
	}
}

func TestZipfPickMatchesSample(t *testing.T) {
	z := NewZipf(100, 1.3)
	a := NewPCG32(5)
	b := NewPCG32(5)
	for i := 0; i < 1000; i++ {
		if z.Sample(a) != z.Pick(b.Uint32()) {
			t.Fatalf("Zipf Pick diverged from Sample at draw %d", i)
		}
	}
}

// Package xrand provides deterministic, seedable pseudo-random number
// generators and sampling distributions used by the synthetic workload
// generators.
//
// Everything in this package is reproducible: the same seed always yields
// the same stream, independent of Go version or platform. No global state
// is used, so concurrent simulations of different application-input pairs
// never interfere with each other.
package xrand

import (
	"math"
	"math/bits"
)

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used both as a standalone generator and to seed PCG32 state from a single
// 64-bit seed. The zero value is a valid generator (seeded with 0).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PCG32 is the PCG-XSH-RR 64/32 generator of O'Neill. It has a 2^64 period,
// excellent statistical quality for simulation workloads, and is cheap
// enough to sit on the hot path of trace generation.
type PCG32 struct {
	state uint64
	inc   uint64
}

// NewPCG32 returns a PCG32 seeded from a single 64-bit seed. The stream
// increment is derived from the seed via SplitMix64 so that different seeds
// produce uncorrelated streams.
func NewPCG32(seed uint64) *PCG32 {
	sm := NewSplitMix64(seed)
	p := &PCG32{}
	p.state = sm.Uint64()
	p.inc = sm.Uint64() | 1 // must be odd
	p.Uint32()
	return p
}

// pcgMult is the PCG 64-bit LCG multiplier.
const pcgMult = 6364136223846793005

// Uint32 returns the next 32-bit value in the stream.
func (p *PCG32) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// pcgOut is the XSH-RR output permutation Uint32 applies to the
// pre-advance state, split out for the block generator.
func pcgOut(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Fill writes the next len(buf) values of the stream into buf and
// advances the generator past them — bit-identical to len(buf)
// successive Uint32 calls. The values are produced four stream
// positions at a time on independent leapfrogged LCG lanes
// (s[k+4] = s[k]*m^4 + c*(m^3+m^2+m+1)), so the serial multiply
// recurrence that bounds Uint32's latency splits into four chains the
// CPU overlaps. Bulk consumers that buffer draws (the synthetic
// generator's fast-forward) get values at multiply throughput instead
// of recurrence latency.
func (p *PCG32) Fill(buf []uint32) {
	if len(buf) < 8 {
		for i := range buf {
			buf[i] = p.Uint32()
		}
		return
	}
	inc := p.inc
	m1 := uint64(pcgMult) // force wrapping (non-constant) arithmetic below
	m2 := m1 * m1
	c2 := (m1 + 1) * inc
	m4 := m2 * m2
	c4 := (m2 + 1) * c2
	s0 := p.state
	s1 := s0*pcgMult + inc
	s2 := s1*pcgMult + inc
	s3 := s2*pcgMult + inc
	i := 0
	for ; i+4 <= len(buf); i += 4 {
		buf[i] = pcgOut(s0)
		buf[i+1] = pcgOut(s1)
		buf[i+2] = pcgOut(s2)
		buf[i+3] = pcgOut(s3)
		s0 = s0*m4 + c4
		s1 = s1*m4 + c4
		s2 = s2*m4 + c4
		s3 = s3*m4 + c4
	}
	// Lane 0 has advanced exactly i positions; finish any tail serially.
	for ; i < len(buf); i++ {
		buf[i] = pcgOut(s0)
		s0 = s0*pcgMult + inc
	}
	p.state = s0
}

// Advance moves the stream delta steps in O(log delta) time, leaving
// the generator exactly where delta Uint32 calls would. delta is
// interpreted modulo 2^64 and the LCG multiplier is odd (invertible),
// so a "negative" delta — Advance(k - n) with k < n — rewinds the
// stream; buffered consumers use that to return unconsumed draws.
// (Brown's arbitrary-stride jump: square-and-multiply on the affine
// state map.)
func (p *PCG32) Advance(delta uint64) {
	accMul, accAdd := uint64(1), uint64(0)
	curMul, curAdd := uint64(pcgMult), p.inc
	for delta > 0 {
		if delta&1 != 0 {
			accMul *= curMul
			accAdd = accAdd*curMul + curAdd
		}
		curAdd = (curMul + 1) * curAdd
		curMul *= curMul
		delta >>= 1
	}
	p.state = accMul*p.state + accAdd
}

// Uint64 returns the next 64-bit value, composed of two 32-bit outputs.
func (p *PCG32) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Lemire's nearly-divisionless method is used to avoid modulo bias.
func (p *PCG32) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(p.Uint64n(uint64(n)))
}

// Uint32n returns a uniformly distributed value in [0, n) using Lemire's
// nearly-divisionless multiply-shift method: the common path is a single
// 32-bit draw and one widening multiply, with the debiasing division
// deferred to the (probability n/2^32) rejection path. It panics if
// n == 0. This is the workhorse of the trace samplers: one generator
// step per draw instead of the two a 64-bit draw costs.
func (p *PCG32) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("xrand: Uint32n with zero n")
	}
	x := p.Uint32()
	m := uint64(x) * uint64(n)
	if l := uint32(m); l < n {
		t := -n % n
		for l < t {
			x = p.Uint32()
			m = uint64(x) * uint64(n)
			l = uint32(m)
		}
	}
	return uint32(m >> 32)
}

// Uint64n returns a uniformly distributed value in [0, n). It panics if
// n == 0.
func (p *PCG32) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Rejection sampling on the top of the range removes modulo bias.
	max := ^uint64(0) - (^uint64(0) % n)
	for {
		v := p.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Uint64nBound returns the rejection bound Uint64n uses internally for a
// given n. Callers that draw many values for the same n can compute it
// once and pass it to Uint64nFast, saving one 64-bit division per draw.
// It panics if n == 0.
func Uint64nBound(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64nBound with zero n")
	}
	return ^uint64(0) - (^uint64(0) % n)
}

// Uint64nFast is Uint64n with the rejection bound precomputed by
// Uint64nBound(n). For equal n it consumes the generator identically to
// Uint64n and returns the same values; it exists purely so batch
// generators can hoist the bound computation out of their inner loops.
func (p *PCG32) Uint64nFast(n, bound uint64) uint64 {
	for {
		v := p.Uint64()
		if v < bound {
			return v % n
		}
	}
}

// Uint64nDiv is Uint64nFast with the final modulo performed by a
// precomputed Divisor, removing the hardware divide from the accepted
// path as well. d must be NewDivisor(n) and bound Uint64nBound(n); the
// values and generator consumption are then identical to Uint64n(n).
func (p *PCG32) Uint64nDiv(d Divisor, bound uint64) uint64 {
	for {
		v := p.Uint64()
		if v < bound {
			return d.Mod(v)
		}
	}
}

// Divisor performs exact unsigned division and modulo by a fixed n using
// the Granlund–Montgomery multiply-shift technique, replacing the ~30-90
// cycle hardware divide in `v % n` with two multiplies. Div and Mod
// return bit-identical results to v/n and v%n for every v; the batched
// samplers rely on this to keep their streams equal to the legacy paths'.
type Divisor struct {
	n    uint64
	m    uint64 // low 64 bits of the 65-bit magic floor(2^(64+l)/n)+1
	sh   uint   // post-shift: l-1 (generic) or log2(n) (power of two)
	pow2 bool
}

// NewDivisor prepares a divisor for n. It panics if n == 0.
func NewDivisor(n uint64) Divisor {
	if n == 0 {
		panic("xrand: NewDivisor with zero n")
	}
	if n&(n-1) == 0 {
		return Divisor{n: n, pow2: true, sh: uint(bits.TrailingZeros64(n))}
	}
	// l = ceil(log2 n), so 2^(l-1) < n < 2^l. The 65-bit magic is
	// M = floor(2^(64+l)/n) + 1 = 2^64 + m with m below: 2^(64+l)/n
	// splits as (2^l/n)<<64 + ((2^l mod n)<<64)/n = 2^64 + q0.
	l := uint(bits.Len64(n - 1))
	q0, _ := bits.Div64((uint64(1)<<l)-n, 0, n)
	return Divisor{n: n, m: q0 + 1, sh: l - 1}
}

// N returns the divisor's modulus.
func (d Divisor) N() uint64 { return d.n }

// Div returns v / d.n exactly.
func (d Divisor) Div(v uint64) uint64 {
	if d.pow2 {
		return v >> d.sh
	}
	// q = floor(M*v / 2^(64+l)) with M = 2^64 + m: the 2^64 term
	// contributes v, recombined overflow-free as t + (v-t)/2 (v >= t).
	t, _ := bits.Mul64(d.m, v)
	return (t + (v-t)>>1) >> d.sh
}

// Mod returns v % d.n exactly.
func (d Divisor) Mod(v uint64) uint64 {
	if d.pow2 {
		return v & (d.n - 1)
	}
	return v - d.Div(v)*d.n
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (p *PCG32) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability prob. It always consumes exactly one
// 32-bit draw (probability resolution 2^-32), so a stream stays aligned
// regardless of the probabilities asked of it.
func (p *PCG32) Bool(prob float64) bool {
	r := p.Uint32()
	if prob >= 1 {
		return true
	}
	// Comparing in float64 avoids the out-of-range edge of converting
	// prob*2^32 to an integer; float64(r) and the product are both exact
	// enough at 2^-32 granularity, and prob <= 0 can never be greater
	// than a non-negative draw.
	return float64(r) < prob*(1<<32)
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (p *PCG32) NormFloat64() float64 {
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Geometric returns a geometric variate with success probability prob,
// i.e. the number of failures before the first success (support {0,1,...}).
// It panics if prob is not in (0, 1].
func (p *PCG32) Geometric(prob float64) int {
	if prob <= 0 || prob > 1 {
		panic("xrand: Geometric probability out of (0,1]")
	}
	if prob == 1 {
		return 0
	}
	u := p.Float64()
	// Inverse transform: floor(log(1-u) / log(1-prob)).
	return int(math.Log(1-u) / math.Log(1-prob))
}

// Categorical samples from a discrete distribution in O(1) using Walker's
// alias method. Build once with NewCategorical, then call Sample per draw.
// A draw costs a single 32-bit generator step: the low 16 bits select the
// alias slot and the independent high 16 bits flip the biased coin, so
// category probabilities are realized at 2^-16 resolution — far below the
// percent-scale tolerances of the workload models this feeds.
type Categorical struct {
	// Threshold and alias are interleaved so a draw costs one bounds
	// check and one 8-byte load — that keeps Sample within the
	// compiler's inlining budget, which matters because the synthesis
	// hot loops draw from it once per uop.
	ta []catEntry
	n  uint32
}

type catEntry struct {
	// threshold is prob[i] scaled to [0, 1<<16]; the coin keeps slot i
	// when the high half of the draw is below it.
	threshold uint32
	alias     int32
}

// NewCategorical builds an alias table for the given non-negative weights.
// Weights need not sum to one. It panics if weights is empty, any weight is
// negative or NaN, or all weights are zero.
func NewCategorical(weights []float64) *Categorical {
	n := len(weights)
	if n == 0 {
		panic("xrand: NewCategorical with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("xrand: NewCategorical with negative or NaN weight")
		}
		total += w
	}
	if total == 0 {
		panic("xrand: NewCategorical with all-zero weights")
	}
	c := &Categorical{
		ta: make([]catEntry, n),
		n:  uint32(n),
	}
	prob := make([]float64, n)
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		c.ta[s].alias = int32(l)
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		c.ta[i].alias = int32(i)
	}
	for _, i := range small {
		prob[i] = 1
		c.ta[i].alias = int32(i)
	}
	for i, p := range prob {
		c.ta[i].threshold = uint32(math.Round(p * (1 << 16)))
	}
	return c
}

// N returns the number of categories.
func (c *Categorical) N() int { return len(c.ta) }

// Sample draws a category index using rng. One 32-bit draw: the low half
// picks the slot (a fixed-point multiply, never a divide), the disjoint —
// hence independent — high half flips the alias coin.
func (c *Categorical) Sample(rng *PCG32) int {
	return c.Pick(rng.Uint32())
}

// Pick maps one full 32-bit draw to a category. It is split from Sample
// so that both it and PCG32.Uint32 fit the compiler's inlining budget
// individually: a hot loop writing c.Pick(rng.Uint32()) compiles with no
// call at all, where c.Sample(rng) — whose body costs the sum of the
// two — does not.
func (c *Categorical) Pick(r uint32) int {
	i := (r & 0xffff) * c.n >> 16
	e := c.ta[i]
	// Conditional-move form: the coin is independent noise, so a branch
	// here would mispredict at the flip rate; a select never does.
	v := e.alias
	if r>>16 < e.threshold {
		v = int32(i)
	}
	return int(v)
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. The CDF is precomputed in 32-bit fixed point and sampled
// with one 32-bit draw and an integer binary search; a 256-entry guide
// table narrows the search to a couple of probes even for thousands of
// branch sites.
type Zipf struct {
	// cdf[i] is the inclusive cumulative probability of items 0..i scaled
	// to 2^32, with the final entry saturated so every draw lands.
	cdf []uint32
	// guide[b] is the first index whose cdf can cover a draw with high
	// byte b, so Sample searches only [guide[b], guide[b+1]].
	guide [257]int32
}

// NewZipf builds a Zipf sampler over n items with exponent s. It panics if
// n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative exponent")
	}
	fcdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		fcdf[i] = sum
	}
	z := &Zipf{cdf: make([]uint32, n)}
	for i := range fcdf {
		v := math.Round(fcdf[i] / sum * (1 << 32))
		if v >= (1 << 32) {
			v = (1 << 32) - 1
		}
		z.cdf[i] = uint32(v)
	}
	z.cdf[n-1] = ^uint32(0)
	// guide[b] = first i with cdf[i] >= b<<24, i.e. the lowest index any
	// draw whose high byte is b could select.
	i := int32(0)
	for b := 0; b <= 256; b++ {
		lo := uint64(b) << 24
		for int(i) < n-1 && uint64(z.cdf[i]) < lo {
			i++
		}
		z.guide[b] = i
	}
	return z
}

// Sample draws an index using rng: one 32-bit draw, then an integer
// binary search over the guide-table bucket the draw's high byte selects.
// An item i is drawn when cdf[i-1] <= u < cdf[i] (in 2^32 fixed point),
// realizing each item's probability at 2^-32 resolution.
func (z *Zipf) Sample(rng *PCG32) int {
	return z.Pick(rng.Uint32())
}

// Pick maps one full 32-bit draw to an item — Sample with the draw
// supplied by the caller, so consumers that buffer their draws (see
// PCG32.Fill) sample without touching the generator.
func (z *Zipf) Pick(u uint32) int {
	b := u >> 24
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

package exec

import (
	"math"
	"math/bits"
)

// fsum is an exact float64 accumulator: a fixed-point superaccumulator
// (R. Neal, "Fast exact summation using small and large superaccumulators",
// 2015). Every finite float64 is an integer multiple of 2^-1074, so any sum
// of them is one too; fsum holds that integer in int64 digits at a 32-bit
// stride, digit k weighing 2^(32k-1075), and round converts it to the
// correctly rounded float64.
//
// Because the sum is exact, the result is independent of the order values
// were added in — which is what makes float SUM and AVG reproducible across
// serial plans, morsel boundaries, and worker counts.
type fsum struct {
	// digits[i] is digit base+i: only the window of digits the values added
	// so far reach is stored. Between carries a digit may exceed 32 bits.
	digits []int64
	base   int32
	adds   int32 // adds since the last carry
	// special is the IEEE sum of the non-finite inputs (Inf, NaN), which
	// leave exact arithmetic undefined and dominate the result; 0 when there
	// were none (a sum of non-finite values is never 0).
	special float64
}

// carryEvery bounds the adds between carries. An add puts less than 2^52
// into a digit, and a carried digit is below 2^32, so 1024 adds keep every
// digit below 2^62 + 2^32 < 2^63.
const carryEvery = 1024

// add accumulates x exactly: x's 53-bit significand, shifted to its place in
// the 32-bit stride, lands as two integer adds into adjacent digits.
func (s *fsum) add(x float64) {
	b := math.Float64bits(x)
	e, m := int(b>>52)&0x7ff, b&(1<<52-1)
	switch e {
	case 0x7ff:
		s.special += x
		return
	case 0:
		if m == 0 {
			return // ±0 adds nothing, and must not widen the window
		}
		e = 1 // subnormal: no implicit bit, the exponent of the smallest normal
	default:
		m |= 1 << 52
	}
	j := e>>5 - int(s.base)
	if j < 0 || j+2 >= len(s.digits) {
		s.grow(e >> 5)
		j = e>>5 - int(s.base)
	}
	sh := uint(e & 31)
	neg := int64(b) >> 63 // all ones for a negative x: v^neg - neg = -v
	s.digits[j] += int64(m<<sh&(1<<32-1)) ^ neg - neg
	s.digits[j+1] += int64(m>>(32-sh)) ^ neg - neg
	if s.adds++; s.adds == carryEvery {
		s.carry()
	}
}

// grow widens the window to hold digits k and k+1, which a value lands in,
// and one digit either side: below, so that values straddling a digit
// boundary do not regrow it, and above, so that only carries reach the top
// digit, which then seldom has to grow.
func (s *fsum) grow(k int) {
	lo, hi := max(k-1, 0), k+3
	if len(s.digits) == 0 {
		s.base = int32(lo)
	}
	lo, hi = min(lo, int(s.base)), max(hi, int(s.base)+len(s.digits))
	d := make([]int64, hi-lo)
	copy(d[int(s.base)-lo:], s.digits)
	s.digits, s.base = d, int32(lo)
}

// carry moves every digit's excess over 32 bits into the next digit:
// afterwards every digit but the top is in [0, 2^32), and the top digit, in
// [-2^31, 2^31), carries the sign of the sum.
func (s *fsum) carry() {
	s.adds = 0
	d := s.digits
	for i := 0; i+1 < len(d); i++ {
		c := d[i] >> 32
		d[i] -= c << 32
		d[i+1] += c
	}
	if n := len(d); n > 0 && (d[n-1] < -1<<31 || d[n-1] >= 1<<31) {
		c := d[n-1] >> 32
		d[n-1] -= c << 32
		s.digits = append(d, c)
	}
}

// negate flips the sign of the sum.
func (s *fsum) negate() {
	for i := range s.digits {
		s.digits[i] = -s.digits[i]
	}
	s.carry()
}

// round returns the correctly rounded value of the exact sum: the 64 bits
// from its leading one down, with a sticky bit for any non-zero bit below
// them, convert to float64 with one round-to-nearest-even, and scaling by a
// power of two is then exact. A subnormal sum has at most 52 significant
// bits, all inside those 64, so it converts without rounding at all.
func (s *fsum) round() float64 {
	if s.special != 0 {
		return s.special
	}
	s.carry()
	d := s.digits
	t := len(d) - 1
	for t >= 0 && d[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	if d[t] < 0 {
		s.negate()
		f := -s.round()
		s.negate()
		return f
	}
	dig := func(i int) uint64 { // digit i, 0 below the window
		if i < 0 {
			return 0
		}
		return uint64(d[i])
	}
	lz := bits.LeadingZeros32(uint32(d[t]))
	w := dig(t)<<(32+lz) | dig(t-1)<<lz | dig(t-2)>>(32-lz)
	sticky := uint32(dig(t-2))<<lz != 0
	for i := t - 3; i >= 0 && !sticky; i-- {
		sticky = d[i] != 0
	}
	if sticky {
		w |= 1
	}
	return math.Ldexp(float64(w), 32*(int(s.base)+t)-1075-32-lz)
}

// compress returns the exact sum as a two-term expansion (hi, lo): hi is the
// correctly rounded sum, lo the correctly rounded residue sum-hi. hi+lo
// carries the sum exactly whenever it fits in two floats, which is how a
// morsel's partial float SUM travels through the exchange without losing the
// bits a later merge needs (see SumErr / MergeSum). A sum that overflows to
// ±Inf has lo = 0, so that a merge sees ±Inf and not Inf-Inf = NaN.
func (s *fsum) compress() (hi, lo float64) {
	hi = s.round()
	if s.special != 0 || math.IsInf(hi, 0) {
		return hi, 0
	}
	s.add(-hi)
	lo = s.round()
	s.add(hi)
	return hi, lo
}

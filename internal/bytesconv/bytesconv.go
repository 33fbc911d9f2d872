// Package bytesconv implements fast conversions between raw byte slices and
// numeric types.
//
// The paper's JIT access paths inline "a custom version of atoi(), the
// function used to convert strings to integers" directly into generated scan
// code. This package is that custom conversion layer: allocation-free parsers
// that operate on sub-slices of a memory-resident raw file, avoiding the
// string conversions and error-object allocations of strconv. The package's
// own grammar is the only validator; a float that needs more than one exact
// multiply or divide is rounded by strconv over the same bytes, uncopied.
package bytesconv

import (
	"errors"
	"math"
	"strconv"
	"unsafe"
)

// Conversion errors. They are sentinel values so hot paths can compare with
// errors.Is without allocating.
var (
	ErrEmpty    = errors.New("bytesconv: empty field")
	ErrSyntax   = errors.New("bytesconv: invalid syntax")
	ErrOverflow = errors.New("bytesconv: value out of range")
)

// ParseInt64 parses a decimal integer with optional leading '-' or '+'.
// It is the moral equivalent of the paper's convertToInteger().
func ParseInt64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, ErrSyntax
	}
	const cutoff = math.MaxInt64/10 + 1
	var un uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, ErrSyntax
		}
		if un >= cutoff {
			return 0, overflowOrSyntax(b[i:])
		}
		un = un*10 + uint64(c)
	}
	if neg {
		if un > 1<<63 {
			return 0, ErrOverflow
		}
		return -int64(un), nil
	}
	if un > math.MaxInt64 {
		return 0, ErrOverflow
	}
	return int64(un), nil
}

// overflowOrSyntax classifies a digit run too long for int64 by what is left
// of it: a malformed token is ErrSyntax however many digits it starts with.
func overflowOrSyntax(rest []byte) error {
	for _, c := range rest {
		if c-'0' > 9 {
			return ErrSyntax
		}
	}
	return ErrOverflow
}

// maxPrefixDigits bounds the digits the prefix parsers take: 18 decimal
// digits fit int64 without an overflow check.
const maxPrefixDigits = 18

// maxExactMant is the largest mantissa the float parsers convert exactly:
// every integer up to 2^53 is a float64.
const maxExactMant = 1 << 53

// numberByte reports whether c can be part of a number token as the text
// scanners delimit one (digits, signs, '.', exponent markers).
func numberByte(c byte) bool {
	return c-'0' <= 9 || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// ParseInt64Prefix scans and converts, in one pass, the number token that
// starts at data[pos] when it is the plain form -?digits of at most 18 digits.
// It returns the value ParseInt64 gives for the token and the offset just
// past it. ok is false — nothing is consumed, and the caller delimits the
// token and calls ParseInt64 to get the value or the error — for every other
// form: no digit, a leading '+', more digits, or a token that goes on ('.',
// an exponent, a stray sign).
func ParseInt64Prefix(data []byte, pos int) (v int64, end int, ok bool) {
	i := pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var un uint64
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		un = un*10 + uint64(c)
	}
	if i == start || i-start > maxPrefixDigits || i < len(data) && numberByte(data[i]) {
		return 0, pos, false
	}
	if neg {
		return -int64(un), i, true
	}
	return int64(un), i, true
}

// ParseFloat64Prefix is ParseInt64Prefix for the plain decimal form
// -?digits[.digits] of at most 18 digits in all whose digits, read as one
// integer, are at most 2^53: the tokens ParseFloat64 converts on its exact
// fast path, by the same operations, so the value is bit-identical. ok is
// false for exponents, a leading '+', larger mantissas and anything
// malformed.
func ParseFloat64Prefix(data []byte, pos int) (v float64, end int, ok bool) {
	i := pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var mant uint64
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		mant = mant*10 + uint64(c)
	}
	digits, frac := i-start, 0
	if i < len(data) && data[i] == '.' {
		i++
		dot := i
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			mant = mant*10 + uint64(c)
		}
		frac = i - dot
		digits += frac
	}
	if digits == 0 || digits > maxPrefixDigits || mant > maxExactMant || i < len(data) && numberByte(data[i]) {
		return 0, pos, false
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10tab[frac]
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// ParseFloat64 parses a decimal floating point number of the form
// [-+]?digits[.digits][eE[-+]digits], where either digit run of the mantissa
// may be empty but not both, and returns the correctly rounded float64 —
// strconv.ParseFloat's value for the same text. Anything else (spaces, hex,
// underscores, Inf/NaN spellings) is ErrSyntax, and a value beyond float64's
// range is ErrOverflow.
//
// Clinger's fast path takes the generators' values: when no digit is dropped,
// the mantissa is at most 2^53 and the decimal exponent at most 22 in
// magnitude, both operands are exact and one multiply or divide rounds
// correctly. Every other token goes to strconv.
func ParseFloat64(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	i := 0
	neg := false
	switch b[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, ErrSyntax
	}
	// Integer part, then fractional part: up to 19 digits accumulate in
	// mant, and any further digit marks the mantissa truncated.
	var mant uint64
	var digits, frac int
	sawDigit, trunc := false, false
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		sawDigit = true
		if digits < 19 {
			mant = mant*10 + uint64(c)
			digits++
		} else {
			trunc = true
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			sawDigit = true
			if digits < 19 {
				mant = mant*10 + uint64(c)
				digits++
				frac++
			} else {
				trunc = true
			}
		}
	}
	if !sawDigit {
		return 0, ErrSyntax
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i == len(b) {
			return 0, ErrSyntax
		}
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				return 0, ErrSyntax
			}
			if exp < 10000 {
				exp = exp*10 + int(c)
			}
		}
		exp *= esign
	}
	if i != len(b) {
		return 0, ErrSyntax
	}
	if e := exp - frac; !trunc && mant <= maxExactMant && e >= -22 && e <= 22 {
		f := float64(mant)
		if e >= 0 {
			f *= pow10tab[e]
		} else {
			f /= pow10tab[-e]
		}
		if neg {
			f = -f
		}
		return f, nil
	}
	// The grammar above is strconv's decimal form, so its only error left
	// is a range error, which it reports as ±Inf.
	f, _ := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
	if math.IsInf(f, 0) {
		return 0, ErrOverflow
	}
	return f, nil
}

// pow10tab holds the powers of ten a float64 represents exactly.
var pow10tab = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// AppendInt64 appends the decimal representation of v to dst.
func AppendInt64(dst []byte, v int64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
	}
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	return append(dst, buf[i:]...)
}

// AppendFloat6 appends f formatted with exactly six fractional digits, the
// encoding every dataset generator in this repository uses (CSV and JSON
// writers share it so identical rows are byte-identical across formats, and
// ParseFloat64 round-trips it exactly).
func AppendFloat6(dst []byte, f float64) []byte {
	if f < 0 {
		dst = append(dst, '-')
		f = -f
	}
	ip := int64(f)
	dst = AppendInt64(dst, ip)
	dst = append(dst, '.')
	frac := int64((f - float64(ip)) * 1e6)
	// Zero-pad to six digits.
	div := int64(100000)
	for div > 0 {
		dst = append(dst, byte('0'+(frac/div)%10))
		div /= 10
	}
	return dst
}

// ParseBool parses "0"/"1"/"true"/"false" (the encodings our generators use).
func ParseBool(b []byte) (bool, error) {
	switch len(b) {
	case 1:
		switch b[0] {
		case '0':
			return false, nil
		case '1':
			return true, nil
		}
	case 4:
		if b[0] == 't' && b[1] == 'r' && b[2] == 'u' && b[3] == 'e' {
			return true, nil
		}
	case 5:
		if b[0] == 'f' && b[1] == 'a' && b[2] == 'l' && b[3] == 's' && b[4] == 'e' {
			return false, nil
		}
	}
	if len(b) == 0 {
		return false, ErrEmpty
	}
	return false, ErrSyntax
}

package bytesconv

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseInt64(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  error
	}{
		{"0", 0, nil},
		{"1", 1, nil},
		{"-1", -1, nil},
		{"+42", 42, nil},
		{"1000000000", 1000000000, nil},
		{"9223372036854775807", math.MaxInt64, nil},
		{"-9223372036854775808", math.MinInt64, nil},
		{"9223372036854775808", 0, ErrOverflow},
		{"-9223372036854775809", 0, ErrOverflow},
		{"99999999999999999999", 0, ErrOverflow},
		{"10000000000000000000A", 0, ErrSyntax},
		{"", 0, ErrEmpty},
		{"-", 0, ErrSyntax},
		{"+", 0, ErrSyntax},
		{"12a", 0, ErrSyntax},
		{"a12", 0, ErrSyntax},
		{"1.5", 0, ErrSyntax},
		{" 1", 0, ErrSyntax},
	}
	for _, c := range cases {
		got, err := ParseInt64([]byte(c.in))
		if !errors.Is(err, c.err) {
			t.Errorf("ParseInt64(%q) err = %v, want %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseInt64(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseInt64MatchesStrconv(t *testing.T) {
	f := func(v int64) bool {
		s := strconv.FormatInt(v, 10)
		got, err := ParseInt64([]byte(s))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseFloat64(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"0", 0},
		{"1", 1},
		{"-1", -1},
		{"3.25", 3.25},
		{"-0.5", -0.5},
		{"1e3", 1000},
		{"1.5e-3", 0.0015},
		{"2.5E+2", 250},
		{"123456789.123456789", 123456789.123456789},
	}
	for _, c := range cases {
		got, err := ParseFloat64([]byte(c.in))
		if err != nil {
			t.Errorf("ParseFloat64(%q) unexpected error %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > math.Abs(c.want)*1e-14 {
			t.Errorf("ParseFloat64(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseFloat64Errors(t *testing.T) {
	for _, in := range []string{"", "-", ".", "1.2.3", "e5", "1e", "1e+", "abc", "1 "} {
		if _, err := ParseFloat64([]byte(in)); err == nil {
			t.Errorf("ParseFloat64(%q) expected error", in)
		}
	}
}

func TestParseFloat64MatchesStrconv(t *testing.T) {
	// The generators emit %.6f and short %g values; verify agreement with
	// strconv within 1 ulp-ish relative error on that domain.
	f := func(mant int32, frac uint16) bool {
		s := strconv.FormatFloat(float64(mant)+float64(frac)/65536, 'f', 6, 64)
		want, _ := strconv.ParseFloat(s, 64)
		got, err := ParseFloat64([]byte(s))
		if err != nil {
			return false
		}
		if want == 0 {
			return got == 0
		}
		return math.Abs(got-want) <= math.Abs(want)*1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendInt64RoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := AppendInt64(nil, v)
		return string(b) == strconv.FormatInt(v, 10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBool(t *testing.T) {
	for _, c := range []struct {
		in   string
		want bool
		ok   bool
	}{
		{"0", false, true}, {"1", true, true},
		{"true", true, true}, {"false", false, true},
		{"", false, false}, {"2", false, false}, {"yes", false, false},
	} {
		got, err := ParseBool([]byte(c.in))
		if (err == nil) != c.ok {
			t.Errorf("ParseBool(%q) err=%v, ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseBool(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func BenchmarkParseInt64(b *testing.B) {
	in := []byte("123456789")
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseInt64(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrconvParseInt(b *testing.B) {
	in := "123456789"
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		if _, err := strconv.ParseInt(in, 10, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// numberEnd delimits a number token the way the text scanners do.
func numberEnd(data []byte, pos int) int {
	for pos < len(data) && numberByte(data[pos]) {
		pos++
	}
	return pos
}

// checkPrefixParsers holds the one-pass parsers to their contract at
// data[pos]: when they accept, end is where the token ends and the value is
// bit for bit what the slice parser gives for the token; when they decline,
// nothing is consumed.
func checkPrefixParsers(t *testing.T, data []byte, pos int) {
	t.Helper()
	tok := data[pos:numberEnd(data, pos)]
	iv, iend, iok := ParseInt64Prefix(data, pos)
	if want, err := ParseInt64(tok); iok {
		if err != nil || iv != want || iend != pos+len(tok) {
			t.Fatalf("ParseInt64Prefix(%q, %d) = %d, %d; ParseInt64(%q) = %d, %v", data, pos, iv, iend, tok, want, err)
		}
	} else if iend != pos {
		t.Fatalf("ParseInt64Prefix(%q, %d) declined but consumed to %d", data, pos, iend)
	}
	fv, fend, fok := ParseFloat64Prefix(data, pos)
	if want, err := ParseFloat64(tok); fok {
		if err != nil || math.Float64bits(fv) != math.Float64bits(want) || fend != pos+len(tok) {
			t.Fatalf("ParseFloat64Prefix(%q, %d) = %v, %d; ParseFloat64(%q) = %v, %v", data, pos, fv, fend, tok, want, err)
		}
	} else if fend != pos {
		t.Fatalf("ParseFloat64Prefix(%q, %d) declined but consumed to %d", data, pos, fend)
	}
}

func TestPrefixParsers(t *testing.T) {
	accepted := func(in string) (bool, bool) {
		_, _, iok := ParseInt64Prefix([]byte(in), 0)
		_, _, fok := ParseFloat64Prefix([]byte(in), 0)
		return iok, fok
	}
	for _, c := range []struct {
		in       string
		int, flt bool // the plain forms must be taken in one pass
	}{
		{"0", true, true}, {"7,", true, true}, {"-0}", true, true}, {"-12345678}", true, true},
		{"123456789012345678]", true, false}, {"-123456789012345678", true, false},
		{"9007199254740992,", true, true}, {"-9007199254740993", true, false}, {"0.00000000000000001", false, true},
		{"1234567890123456789,", false, false}, {"12345678901234567890123456789", false, false},
		{"1.5,", false, true}, {"-0.000001}", false, true}, {"1.", false, true}, {".5", false, true},
		{"12345678.1234567890,", false, false}, {"1234567890.123456789", false, false},
		{"360871.41685690597", false, false}, {"90071992.54740992", false, true},
		{"0.1234567890123456789", false, false},
		{"+7", false, false}, {"1e3", false, false}, {"1.5E-3", false, false}, {"1-2", false, false},
		{"1.2.3", false, false}, {"-", false, false}, {".", false, false}, {"", false, false},
		{"x1", false, false}, {"--1", false, false}, {"1+", false, false},
	} {
		if iok, fok := accepted(c.in); iok != c.int || fok != c.flt {
			t.Errorf("%q: accepted as int %v (want %v), as float %v (want %v)", c.in, iok, c.int, fok, c.flt)
		}
		for pad := 0; pad < 10; pad++ { // with and without a whole word to load
			data := []byte("[" + c.in + "         "[:pad])
			checkPrefixParsers(t, data, 1)
		}
	}
	// Random tokens of every digit count, in the middle of other bytes.
	rng := rand.New(rand.NewSource(1))
	const alphabet = "0123456789012345678901234567890123456789--++..eE,} x"
	for i := 0; i < 200000; i++ {
		data := make([]byte, 1+rng.Intn(30))
		for j := range data {
			data[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkPrefixParsers(t, data, rng.Intn(len(data)))
	}
}

// TestParseFloat64CorrectlyRounded pins inputs a multiply-by-power-of-ten
// parser misrounds, then holds seeded random shortest-round-trip doubles,
// and 17-digit plain decimals through the prefix parser, to strconv bit for
// bit.
func TestParseFloat64CorrectlyRounded(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseFloat64([]byte(s))
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloat64(%q) = %v, %v; want %v", s, got, err, want)
		}
		if v, _, ok := ParseFloat64Prefix([]byte(s), 0); ok && math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("ParseFloat64Prefix(%q) = %v; want %v", s, v, want)
		}
	}
	for _, s := range []string{"7.078406569534682e+64", "1e-320", "0.000001e309", "360871.41685690597"} {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(rng.Float64()*1e6, 'f', -1, 64))
	}
}

// checkPrefixAt holds the prefix parsers to their contract on s at offset
// len(pre) of a buffer, followed by post and by each of post's first eight
// prefixes, so that tokens also end within 8 bytes of the buffer's end. Each
// buffer is allocated to its length, so a read past it panics.
func checkPrefixAt(t *testing.T, pre []byte, s string, post []byte) {
	t.Helper()
	for k := range len(post) + 1 {
		if k > 8 && k < len(post) {
			continue
		}
		data := make([]byte, 0, len(pre)+len(s)+k)
		data = append(append(append(data, pre...), s...), post[:k]...)
		checkPrefixParsers(t, data, len(pre))
	}
}

// FuzzParseFloat holds ParseFloat64 to strconv on every token its grammar
// accepts: the same bits, or ErrOverflow exactly where strconv gives ±Inf.
// Wherever the prefix parsers accept the token, at any offset and with any
// bytes after it, they agree with the full ones (checkPrefixAt).
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{"0", "-0", "1.5", ".5", "5.", "+1e-5", "7.078406569534682e+64",
		"1e-320", "0.000001e309", "360871.41685690597", "1e400", "-2e-400", "1_0", "inf", "0x1p3"} {
		f.Add([]byte("x,"), s, []byte(",9\n"))
	}
	f.Add([]byte(nil), "90071992.54740992", []byte("}"))
	f.Add([]byte("{\"a\":"), "-0.000001", []byte("e5,1234567"))
	f.Fuzz(func(t *testing.T, pre []byte, s string, post []byte) {
		checkPrefixAt(t, pre, s, post)
		got, err := ParseFloat64([]byte(s))
		if errors.Is(err, ErrEmpty) || errors.Is(err, ErrSyntax) {
			return
		}
		want, serr := strconv.ParseFloat(s, 64)
		if errors.Is(err, ErrOverflow) != math.IsInf(want, 0) ||
			err == nil && (serr != nil || math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("ParseFloat64(%q) = %v, %v; strconv %v, %v", s, got, err, want, serr)
		}
	})
}

// FuzzParseInt is FuzzParseFloat for ParseInt64: the same value, or
// ErrOverflow exactly where strconv reports a range error.
func FuzzParseInt(f *testing.F) {
	for _, s := range []string{"0", "-0", "+7", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "000000000000000000000001", "1_0", "12x4"} {
		f.Add([]byte("7,"), s, []byte("\r\n"))
	}
	f.Add([]byte(nil), "-123456789012345678", []byte("]"))
	f.Add([]byte("1"), "123456789012345678", []byte("9,"))
	f.Fuzz(func(t *testing.T, pre []byte, s string, post []byte) {
		checkPrefixAt(t, pre, s, post)
		got, err := ParseInt64([]byte(s))
		if errors.Is(err, ErrEmpty) || errors.Is(err, ErrSyntax) {
			return
		}
		want, serr := strconv.ParseInt(s, 10, 64)
		if errors.Is(err, ErrOverflow) != errors.Is(serr, strconv.ErrRange) ||
			err == nil && (serr != nil || got != want) {
			t.Fatalf("ParseInt64(%q) = %d, %v; strconv %d, %v", s, got, err, want, serr)
		}
	})
}

package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"testing"

	"rawdb"
	"rawdb/internal/vector"
)

// encodeResult is the wire encoder before appendResult: a Response built
// cell by cell with strconv's Format functions, then json.Encoder. It is the
// oracle appendResult must match byte for byte.
func encodeResult(names []string, types []vector.Type, cols []*vector.Vector) *Response {
	out := &Response{
		Columns: append([]string(nil), names...),
		Types:   make([]string, len(types)),
	}
	for i, t := range types {
		out.Types[i] = t.String()
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	out.Rows = make([][]string, n)
	for i := 0; i < n; i++ {
		row := make([]string, len(names))
		for c := range names {
			row[c] = encodeCell(types[c], cols[c], i)
		}
		out.Rows[i] = row
	}
	return out
}

func encodeCell(t vector.Type, v *vector.Vector, row int) string {
	switch t {
	case vector.Int64:
		return strconv.FormatInt(v.Int64s[row], 10)
	case vector.Float64:
		return strconv.FormatFloat(v.Float64s[row], 'g', -1, 64)
	case vector.Bool:
		return strconv.FormatBool(v.Value(row).(bool))
	default: // vector.Bytes
		return fmt.Sprint(v.Value(row))
	}
}

// oracleLine is what encoding/json writes for resp.
func oracleLine(t *testing.T, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncode requires appendResult to write exactly the oracle's bytes, and
// appendError exactly those of Response{Error: msg}; both append after a
// non-empty prefix, as onto a reused buffer.
func checkEncode(t *testing.T, names []string, types []vector.Type, cols []*vector.Vector, msg string) {
	t.Helper()
	prefix := []byte("prev")
	if got, want := appendResult(prefix, names, types, cols)[len(prefix):], oracleLine(t, encodeResult(names, types, cols)); !bytes.Equal(got, want) {
		t.Fatalf("appendResult:\n got %q\nwant %q", got, want)
	}
	if got, want := appendError(prefix, msg)[len(prefix):], oracleLine(t, &Response{Error: msg}); !bytes.Equal(got, want) {
		t.Fatalf("appendError(%q):\n got %q\nwant %q", msg, got, want)
	}
}

// awkward holds strings encoding/json escapes: quotes, backslashes, every
// named control escape and some unnamed ones, HTML's < > &, U+2028/U+2029,
// multi-byte runes, and invalid UTF-8 (lone continuation, truncated
// sequences, overlong and surrogate encodings).
var awkward = []string{
	"", "plain", `q"uo\te`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<a href='x'>&amp;</a>",
	"line\u2028sep\u2029para", "héllo wörld ✓ 😀", "\x80", "a\xc3", "\xe2\x80", "\xc0\xaf",
	"\xed\xa0\x80", "\xf4\x90\x80\x80", "\xff\xfe", "\u2027\u202a",
}

func TestWireEncodeMatchesJSON(t *testing.T) {
	ints := vector.New(vector.Int64, 0)
	floats := vector.New(vector.Float64, 0)
	bools := vector.New(vector.Bool, 0)
	strs := vector.New(vector.Bytes, 0)
	special := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1.0 / 3, 123456789.12345678,
		1e20, 1e21, 1e-6, 1e-7, 9007199254740993, -1.2345678901234567e-300, 5e300}
	extremes := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}
	for i, s := range awkward {
		ints.AppendInt64(extremes[i%len(extremes)])
		floats.AppendFloat64(special[i%len(special)])
		bools.AppendBool(i%3 == 0)
		strs.AppendBytes([]byte(s))
	}
	for i := len(awkward); i < len(special); i++ {
		ints.AppendInt64(extremes[i%len(extremes)])
		floats.AppendFloat64(special[i])
		bools.AppendBool(i%2 == 0)
		strs.AppendBytes([]byte(awkward[i%len(awkward)]))
	}
	names := []string{"i", "f", "b", "s"}
	types := []vector.Type{vector.Int64, vector.Float64, vector.Bool, vector.Bytes}
	cols := []*vector.Vector{ints, floats, bools, strs}

	checkEncode(t, names, types, cols, "boom")
	// Zero rows, zero columns, one column.
	empty := []*vector.Vector{vector.New(vector.Int64, 0), vector.New(vector.Float64, 0)}
	checkEncode(t, names[:2], types[:2], empty, "")
	checkEncode(t, nil, nil, nil, "")
	for c := range cols {
		checkEncode(t, names[c:c+1], types[c:c+1], cols[c:c+1], "x")
	}
	// Awkward bytes in column names and error text.
	for _, s := range awkward {
		checkEncode(t, []string{s, "ok"}, types[:2], cols[:2], "bad request: "+s)
	}
}

// fuzzBytes hands out a fuzz input piece by piece; past its end every read
// is zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) u64() uint64 {
	var x [8]byte
	n := copy(x[:], *b)
	*b = (*b)[n:]
	return binary.LittleEndian.Uint64(x[:])
}

func (b *fuzzBytes) chunk() []byte {
	n := min(int(b.next()%24), len(*b))
	c := (*b)[:n]
	*b = (*b)[n:]
	return c
}

// resultFrom derives a result from fuzz bytes: up to 4 columns of any type
// with arbitrary-byte names, up to 7 rows of arbitrary int64s, float bit
// patterns (NaN, ±Inf, subnormals, −0), bools and arbitrary-byte VARCHARs.
func resultFrom(data []byte) ([]string, []vector.Type, []*vector.Vector) {
	b := fuzzBytes(data)
	ncols, nrows := int(b.next()%5), int(b.next()%8)
	names := make([]string, ncols)
	types := make([]vector.Type, ncols)
	cols := make([]*vector.Vector, ncols)
	for c := range cols {
		names[c] = string(b.chunk())
		types[c] = vector.Type(b.next() % 4)
		cols[c] = vector.New(types[c], nrows)
	}
	for r := 0; r < nrows; r++ {
		for c, v := range cols {
			switch types[c] {
			case vector.Int64:
				v.AppendInt64(int64(b.u64()))
			case vector.Float64:
				v.AppendFloat64(math.Float64frombits(b.u64()))
			case vector.Bool:
				v.AppendBool(b.next()&1 == 1)
			default:
				v.AppendBytes(b.chunk())
			}
		}
	}
	return names, types, cols
}

func FuzzWireEncode(f *testing.F) {
	for _, s := range awkward {
		f.Add([]byte{4, 3, 1, 'a', 3, 1, 'b', 1, 0, 'c', 2, byte(len(s))})
		f.Add(append([]byte{1, 2, 0, 3, byte(len(s))}, s...))
	}
	f.Add([]byte("\x03\x05\x02ab\x01\x00\x00\x01\x7f\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		names, types, cols := resultFrom(data)
		checkEncode(t, names, types, cols, string(data))
	})
}

// checkDecode requires decodeResponse to equal json.Unmarshal into a fresh
// Response: the same value and the same nil-ness of the error.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	var want Response
	werr := json.Unmarshal(line, &want)
	got, err := decodeResponse(line)
	if (err == nil) != (werr == nil) || !reflect.DeepEqual(*got, want) {
		t.Fatalf("decode %q:\n got %#v (%v)\nwant %#v (%v)", line, *got, err, want, werr)
	}
}

func FuzzWireDecode(f *testing.F) {
	// Real server lines: engine results, errors, and encoder output with
	// escaped VARCHAR cells and column names.
	eng, _, _ := testEngine(f)
	srv := New(eng, Options{})
	for _, q := range []string{
		"SELECT col1, col2 FROM t WHERE col1 < 3000000",
		"SELECT SUM(col2), MAX(col1), COUNT(*) FROM t",
		"SELECT col1 FROM t WHERE col1 < 0",
		"SELECT nope FROM t",
	} {
		line, _ := srv.serve(context.Background(), Request{Query: q}, nil)
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	strs := vector.New(vector.Bytes, 0)
	for _, s := range awkward {
		strs.AppendBytes([]byte(s))
	}
	names := []string{"s", "<\u2028>"}
	types := []vector.Type{vector.Bytes, vector.Bytes}
	line := appendResult(nil, names, types, []*vector.Vector{strs, strs})
	f.Add(bytes.TrimSuffix(line, []byte("\n")))
	for _, s := range []string{`{}`, `{"rows":[["a"],["b","c"]]}`, `{"columns":[],"rows":[[]]}`,
		`{"types":["BIGINT"],"columns":["a"]}`, `{"columns":null}`, ` {"error":"x"} `, `{"Error":"x"}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		names, types, cols := resultFrom(data)
		checkDecode(t, bytes.TrimSuffix(appendResult(nil, names, types, cols), []byte("\n")))
	})
}

// TestWireAllocs fences what the line protocol adds to a warm query's
// allocations: a constant, not a number per cell. Client and server run in
// this process, so both sides count.
func TestWireAllocs(t *testing.T) {
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&b, "%d,%s,%d\n", i, strconvFloat(rng.Float64()*1e6), i%97)
	}
	eng := raw.NewEngine(raw.Config{Parallelism: 1})
	t.Cleanup(func() { eng.Close() })
	schema := []raw.Column{{Name: "col1", Type: raw.Int64}, {Name: "col2", Type: raw.Float64}, {Name: "col3", Type: raw.Int64}}
	if err := eng.RegisterCSVData("t", b.Bytes(), schema); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeLine(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		name, sql string
		rows      int
	}{
		{"sum", "SELECT SUM(col2) FROM t", 1},
		{"groupby", "SELECT col3, SUM(col2) FROM t GROUP BY col3", 97},
		{"select", "SELECT col1, col2 FROM t WHERE col1 < 1000", 1000},
	} {
		var engErr, lineErr error
		for i := 0; i < 3; i++ { // capture every shred the query uses
			if _, err := eng.Query(tc.sql); err != nil {
				t.Fatal(err)
			}
		}
		engine := testing.AllocsPerRun(20, func() {
			if _, err := eng.Query(tc.sql); err != nil {
				engErr = err
			}
		})
		var resp *Response
		line := testing.AllocsPerRun(20, func() {
			if resp, err = c.Query(Request{Query: tc.sql}); err != nil {
				lineErr = err
			}
		})
		if engErr != nil || lineErr != nil {
			t.Fatalf("%s: engine err %v, line err %v", tc.name, engErr, lineErr)
		}
		if len(resp.Rows) != tc.rows {
			t.Fatalf("%s: %d rows over the wire, want %d", tc.name, len(resp.Rows), tc.rows)
		}
		t.Logf("%s: %.0f allocations through Engine.Query, %.0f through the line protocol", tc.name, engine, line)
		if line-engine > 40 {
			t.Errorf("%s: the line protocol adds %.0f allocations to a warm query (Engine.Query %.0f, line %.0f); want <= 40",
				tc.name, line-engine, engine, line)
		}
	}
}

// TestLineLargeResult: a response line far beyond the server's 16 MB
// request cap still reaches the client whole.
func TestLineLargeResult(t *testing.T) {
	const n = 800_000
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(11))
	floats := make([]float64, n)
	for i := range floats {
		floats[i] = rng.Float64()
		fmt.Fprintf(&b, "%d,%s\n", i, strconvFloat(floats[i]))
	}
	eng := raw.NewEngine(raw.Config{Strategy: raw.StrategyInSitu})
	t.Cleanup(func() { eng.Close() })
	schema := []raw.Column{{Name: "a", Type: raw.Int64}, {Name: "f", Type: raw.Float64}}
	if err := eng.RegisterCSVData("t", b.Bytes(), schema); err != nil {
		t.Fatal(err)
	}
	b = bytes.Buffer{}
	srv := New(eng, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeLine(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(Request{Query: "SELECT a, f FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != n {
		t.Fatalf("%d rows, want %d", len(resp.Rows), n)
	}
	size := 0
	for i, row := range resp.Rows {
		size += len(row[0]) + len(row[1])
		if resp.Int64(i, 0) != int64(i) || math.Float64bits(resp.Float64(i, 1)) != math.Float64bits(floats[i]) {
			t.Fatalf("row %d = %v, want [%d %v]", i, row, i, floats[i])
		}
	}
	if size < 16<<20 {
		t.Fatalf("cells total %d bytes; the test needs a line over 16 MB", size)
	}
	// The session stays usable after the long line.
	if r, err := c.Query(Request{Query: "SELECT COUNT(*) FROM t"}); err != nil || r.Int64(0, 0) != n {
		t.Fatalf("follow-up query: %v, %v", r, err)
	}
}

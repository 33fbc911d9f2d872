package csvfile

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"rawdb/internal/vector"
)

func TestFieldBounds(t *testing.T) {
	data := []byte("12,345,6\n7,,89\n")
	s, e, n := FieldBounds(data, 0)
	if string(data[s:e]) != "12" || n != 3 {
		t.Fatalf("field0 = %q next=%d", data[s:e], n)
	}
	s, e, n = FieldBounds(data, n)
	if string(data[s:e]) != "345" || n != 7 {
		t.Fatalf("field1 = %q next=%d", data[s:e], n)
	}
	s, e, n = FieldBounds(data, n)
	if string(data[s:e]) != "6" || n != 9 {
		t.Fatalf("field2 = %q next=%d", data[s:e], n)
	}
	// Empty field on second row.
	p := SkipFields(data, 9, 1)
	s, e, _ = FieldBounds(data, p)
	if s != e {
		t.Fatalf("expected empty field, got %q", data[s:e])
	}
}

func TestFieldBoundsAtEOFWithoutNewline(t *testing.T) {
	data := []byte("1,2")
	p := SkipFields(data, 0, 1)
	s, e, n := FieldBounds(data, p)
	if string(data[s:e]) != "2" || n != len(data) {
		t.Fatalf("got %q next=%d", data[s:e], n)
	}
}

func TestSkipRowAndCountRows(t *testing.T) {
	data := []byte("a,b\nc,d\ne,f")
	if p := SkipRow(data, 0); p != 4 {
		t.Fatalf("SkipRow = %d", p)
	}
	if n := CountRows(data); n != 3 {
		t.Fatalf("CountRows = %d", n)
	}
	if n := CountRows([]byte("a\nb\n")); n != 2 {
		t.Fatalf("CountRows trailing newline = %d", n)
	}
	if n := CountRows(nil); n != 0 {
		t.Fatalf("CountRows(nil) = %d", n)
	}
}

// TestTokenizerMatchesEncodingCSV cross-checks our tokenizer against the
// stdlib CSV reader on generated numeric files.
func TestTokenizerMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	w := NewWriter(&buf, []vector.Type{vector.Int64, vector.Int64, vector.Float64})
	const rows = 500
	for i := 0; i < rows; i++ {
		if err := w.WriteRow(
			[]int64{rng.Int63n(1e9), -rng.Int63n(1e6)},
			[]float64{rng.Float64() * 1000},
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	std, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(std) != rows {
		t.Fatalf("stdlib parsed %d rows, want %d", len(std), rows)
	}
	pos := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < 3; c++ {
			s, e, n := FieldBounds(data, pos)
			if got := string(data[s:e]); got != std[r][c] {
				t.Fatalf("row %d col %d: got %q, want %q", r, c, got, std[r][c])
			}
			pos = n
		}
	}
	if pos != len(data) {
		t.Fatalf("tokenizer ended at %d, file length %d", pos, len(data))
	}
}

// TestSkipEquivalence checks SkipFields agrees with FieldBounds on arbitrary
// comma/newline soup.
func TestSkipEquivalence(t *testing.T) {
	f := func(raw []byte) bool {
		// Map raw bytes onto a CSV-ish alphabet.
		alphabet := []byte("0123456789,\n")
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = alphabet[int(b)%len(alphabet)]
		}
		pos := 0
		for pos < len(data) {
			_, _, next := FieldBounds(data, pos)
			if SkipFields(data, pos, 1) != next {
				return false
			}
			pos = next
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriterFloatFormatting(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, []vector.Type{vector.Float64})
	for _, f := range []float64{0, 1.5, -2.25, 1234.000001} {
		if err := w.WriteRow(nil, []float64{f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{"0.000000", "1.500000", "-2.250000", "1234.000001"}
	for i, l := range lines {
		if l != want[i] {
			t.Errorf("line %d = %q, want %q", i, l, want[i])
		}
		if _, err := strconv.ParseFloat(l, 64); err != nil {
			t.Errorf("line %d %q not parseable: %v", i, l, err)
		}
	}
}

func TestWriterRejectsUnsupportedType(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, []vector.Type{vector.Bytes})
	if err := w.WriteRow(nil, nil); err == nil {
		t.Fatal("expected error for Bytes column")
	}
}

func TestWriterRowCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, []vector.Type{vector.Int64})
	for i := int64(0); i < 3; i++ {
		if err := w.WriteRow([]int64{i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.Rows() != 3 {
		t.Fatalf("Rows = %d", w.Rows())
	}
}

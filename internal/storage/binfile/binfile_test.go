package binfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rawdb/internal/vector"
)

func writeTestFile(t *testing.T, types []vector.Type, ints [][]int64, floats [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, types, int64(len(ints)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if err := w.WriteRow(ints[i], floats[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	types := []vector.Type{vector.Int64, vector.Float64, vector.Int64}
	rng := rand.New(rand.NewSource(1))
	const rows = 200
	ints := make([][]int64, rows)
	floats := make([][]float64, rows)
	for i := range ints {
		ints[i] = []int64{rng.Int63(), -rng.Int63n(1e9)}
		floats[i] = []float64{rng.NormFloat64() * 100}
	}
	data := writeTestFile(t, types, ints, floats)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NRows() != rows {
		t.Fatalf("NRows = %d", r.NRows())
	}
	if r.RowSize() != 24 {
		t.Fatalf("RowSize = %d", r.RowSize())
	}
	if r.FieldOffset(0) != 0 || r.FieldOffset(1) != 8 || r.FieldOffset(2) != 16 {
		t.Fatalf("offsets: %d %d %d", r.FieldOffset(0), r.FieldOffset(1), r.FieldOffset(2))
	}
	for i := int64(0); i < rows; i++ {
		if got := r.Int64At(i, 0); got != ints[i][0] {
			t.Fatalf("row %d col 0 = %d, want %d", i, got, ints[i][0])
		}
		if got := r.Float64At(i, 1); got != floats[i][0] {
			t.Fatalf("row %d col 1 = %v, want %v", i, got, floats[i][0])
		}
		if got := r.Int64At(i, 2); got != ints[i][1] {
			t.Fatalf("row %d col 2 = %d, want %d", i, got, ints[i][1])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		types := []vector.Type{vector.Int64}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, types, int64(len(vals)))
		if err != nil {
			return false
		}
		for _, v := range vals {
			if err := w.WriteRow([]int64{v}, nil); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(buf.Bytes())
		if err != nil {
			return false
		}
		for i, v := range vals {
			if r.Int64At(int64(i), 0) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriterRowCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []vector.Type{vector.Int64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]int64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("expected error: wrote 1 of 2 declared rows")
	}
	// Writing past the declared count must fail too.
	var buf2 bytes.Buffer
	w2, _ := NewWriter(&buf2, []vector.Type{vector.Int64}, 1)
	_ = w2.WriteRow([]int64{1}, nil)
	if err := w2.WriteRow([]int64{2}, nil); err == nil {
		t.Fatal("expected error writing beyond declared row count")
	}
}

func TestWriterRejectsVariableWidth(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, []vector.Type{vector.Bytes}, 1); err == nil {
		t.Fatal("expected error for variable-width column")
	}
}

func TestCorruptFiles(t *testing.T) {
	good := writeTestFile(t, []vector.Type{vector.Int64},
		[][]int64{{1}, {2}}, [][]float64{nil, nil})

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOTMAGIC"), good[8:]...),
		"truncated":   good[:len(good)-4],
		"header only": good[:len(Magic)+12],
	}
	for name, data := range cases {
		if _, err := NewReader(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Unknown column type byte.
	bad := append([]byte(nil), good...)
	bad[len(Magic)+12] = 0xEE
	if _, err := NewReader(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad type byte: err = %v, want ErrCorrupt", err)
	}
}

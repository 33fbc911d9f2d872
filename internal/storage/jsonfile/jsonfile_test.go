package jsonfile

import (
	"bytes"
	"strings"
	"testing"

	"rawdb/internal/bytesconv"
	"rawdb/internal/vector"
)

func TestWriterNesting(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []Field{
		{Path: "id", Type: vector.Int64},
		{Path: "payload.energy", Type: vector.Float64},
		{Path: "payload.cells.n", Type: vector.Int64},
		{Path: "run", Type: vector.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]int64{7, 42, 3}, []float64{1.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"id":7,"payload":{"energy":1.500000,"cells":{"n":42}},"run":3}` + "\n"
	if buf.String() != want {
		t.Fatalf("row = %q, want %q", buf.String(), want)
	}
	if w.Rows() != 1 {
		t.Fatalf("Rows = %d", w.Rows())
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, nil); err == nil {
		t.Fatal("expected error for empty field list")
	}
	if _, err := NewWriter(&buf, []Field{{Path: "a..b", Type: vector.Int64}}); err == nil {
		t.Fatal("expected error for empty path segment")
	}
	if _, err := NewWriter(&buf, []Field{{Path: "a", Type: vector.Bytes}}); err == nil {
		t.Fatal("expected error for unsupported type")
	}
	// Layouts that would emit duplicate object keys are rejected.
	i64 := vector.Int64
	bad := [][]Field{
		{{Path: "a", Type: i64}, {Path: "a", Type: i64}},                             // duplicate leaf
		{{Path: "a.b", Type: i64}, {Path: "x", Type: i64}, {Path: "a.c", Type: i64}}, // reopened object
		{{Path: "a", Type: i64}, {Path: "a.b", Type: i64}},                           // leaf then nested
		{{Path: "a.b", Type: i64}, {Path: "a", Type: i64}},                           // nested then leaf
		{{Path: "a.b", Type: i64}, {Path: "x", Type: i64}, {Path: "a", Type: i64}},   // closed object then leaf
	}
	for i, fields := range bad {
		if _, err := NewWriter(&buf, fields); err == nil {
			t.Errorf("case %d: layout %v accepted, would emit duplicate keys", i, fields)
		}
	}
	// Deep consecutive sharing stays legal.
	ok := []Field{{Path: "a.b.c", Type: i64}, {Path: "a.b.d", Type: i64},
		{Path: "a.e", Type: i64}, {Path: "f", Type: i64}}
	if _, err := NewWriter(&buf, ok); err != nil {
		t.Fatalf("legal nesting rejected: %v", err)
	}
}

func TestFindPath(t *testing.T) {
	row := []byte(`{"a": 1, "s": "br{ace\"s", "b": {"x": [1,{"y":2}], "c": -3.5e2}, "d": true}` + "\n")
	cases := []struct {
		path string
		want string
	}{
		{"a", "1"},
		{"b.c", "-3.5e2"},
	}
	for _, c := range cases {
		pos := FindPath(row, 0, SplitPath(c.path))
		if pos < 0 {
			t.Fatalf("path %s not found", c.path)
		}
		end := NumberEnd(row, pos)
		if got := string(row[pos:end]); got != c.want {
			t.Fatalf("path %s = %q, want %q", c.path, got, c.want)
		}
	}
	for _, missing := range []string{"z", "b.z", "a.b", "s.x", "d.x"} {
		if pos := FindPath(row, 0, SplitPath(missing)); pos >= 0 {
			t.Fatalf("path %s unexpectedly found at %d", missing, pos)
		}
	}
}

func TestSkipValueForms(t *testing.T) {
	cases := []string{
		`123`, `-1.5e-7`, `"str\"esc"`, `true`, `false`, `null`,
		`{"a":{"b":[1,2,"}"]}}`, `[{"x":"]"},[]]`,
	}
	for _, c := range cases {
		data := []byte(c + ",rest")
		end := SkipValue(data, 0)
		if got := string(data[end:]); got != ",rest" {
			t.Fatalf("SkipValue(%q) left %q", c, got)
		}
	}
	// A value never spans rows: a misspelt literal ends at its first wrong
	// byte, an escape does not hide the newline, and an unterminated string
	// is given up at the row's end — never in the middle of the next row.
	for _, c := range []struct{ in, left string }{
		{"n}\n{\"run\":1}\n", "}\n{\"run\":1}\n"},
		{"tru}\n{\"run\":1}\n", "}\n{\"run\":1}\n"},
		{"\"x\\\n{\"run\":1}\n", "\n{\"run\":1}\n"},
		{"[\"x\\\n{\"run\":1}\n", "\n{\"run\":1}\n"},
		{"fals", ""},
	} {
		data := []byte(c.in)
		if got := string(data[SkipValue(data, 0):]); got != c.left {
			t.Errorf("SkipValue(%q) left %q, want %q", c.in, got, c.left)
		}
	}
	if pos := FindPath([]byte("{\"a\":n}\n{\"run\":1}\n"), 0, []string{"run"}); pos >= 0 {
		t.Errorf("FindPath found a path of the next row at %d", pos)
	}
}

func TestNextMemberWalk(t *testing.T) {
	row := []byte(`{ "a" : 1 , "b" : "x" }`)
	pos, ok := EnterObject(row, 0)
	if !ok {
		t.Fatal("EnterObject failed")
	}
	var keys []string
	for {
		ks, ke, vpos, next, done, err := NextMember(row, pos)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		keys = append(keys, string(row[ks:ke]))
		_ = vpos
		pos = SkipValue(row, next)
	}
	if strings.Join(keys, ",") != "a,b" {
		t.Fatalf("keys = %v", keys)
	}
	// Malformed member.
	if _, _, _, _, _, err := NextMember([]byte(`{a:1}`), 1); err == nil {
		t.Fatal("expected error for unquoted key")
	}
}

func TestCountRowsAndNextRow(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"a\":2}\n{\"a\":3}")
	if n := CountRows(data); n != 3 {
		t.Fatalf("CountRows = %d", n)
	}
	if CountRows(nil) != 0 {
		t.Fatal("CountRows(nil) != 0")
	}
	pos := NextRow(data, 0)
	if pos != 8 {
		t.Fatalf("NextRow = %d", pos)
	}
	if NextRow(data, pos) != 16 {
		t.Fatalf("second NextRow = %d", NextRow(data, pos))
	}
	if NextRow(data, 16) != len(data) {
		t.Fatal("NextRow past last newline should land at EOF")
	}
}

// TestWriterRoundTrip: values written by the Writer parse back exactly via
// the bytesconv parsers used by the scan operators.
func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []Field{
		{Path: "i", Type: vector.Int64},
		{Path: "p.f", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ints := []int64{0, -17, 123456789}
	floats := []float64{0.25, -3.125, 999999.875}
	for r := range ints {
		if err := w.WriteRow(ints[r:r+1], floats[r:r+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pos := 0
	for r := range ints {
		ip := FindPath(data, pos, []string{"i"})
		fp := FindPath(data, pos, []string{"p", "f"})
		if ip < 0 || fp < 0 {
			t.Fatalf("row %d: paths not found", r)
		}
		gi, err := bytesconv.ParseInt64(data[ip:NumberEnd(data, ip)])
		if err != nil {
			t.Fatal(err)
		}
		gf, err := bytesconv.ParseFloat64(data[fp:NumberEnd(data, fp)])
		if err != nil {
			t.Fatal(err)
		}
		if gi != ints[r] || gf != floats[r] {
			t.Fatalf("row %d: got %d/%v want %d/%v", r, gi, gf, ints[r], floats[r])
		}
		pos = NextRow(data, pos)
	}
}

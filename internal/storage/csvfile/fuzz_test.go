package csvfile

import (
	"bytes"
	"testing"
)

// FuzzSplit checks the morsel-splitter invariants on arbitrary bytes: spans
// are contiguous and non-empty, cover the file exactly once, every boundary
// sits just past a newline (so no record is split across morsels), and the
// per-span row counts sum to the whole file's.
func FuzzSplit(f *testing.F) {
	f.Add([]byte(""), 4)
	f.Add([]byte("1,2,3\n4,5,6\n"), 2)
	f.Add([]byte("1,2,3\n4,5,6"), 3) // no trailing newline
	f.Add([]byte("\n\n\n"), 5)
	f.Add([]byte("a"), 1)
	f.Add(bytes.Repeat([]byte("7,8\n"), 100), 16)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 {
			n = -n
		}
		n = n%64 + 1
		spans := Split(data, n)
		if len(data) == 0 {
			if spans != nil {
				t.Fatalf("empty file produced %d spans", len(spans))
			}
			return
		}
		if len(spans) == 0 || len(spans) > n {
			t.Fatalf("%d spans for n=%d", len(spans), n)
		}
		pos := 0
		var rows int64
		for i, sp := range spans {
			if sp.Start != pos {
				t.Fatalf("span %d starts at %d, want %d (gap or overlap)", i, sp.Start, pos)
			}
			if sp.End <= sp.Start {
				t.Fatalf("span %d is empty or inverted: [%d,%d)", i, sp.Start, sp.End)
			}
			if sp.End != len(data) && data[sp.End-1] != '\n' {
				t.Fatalf("span %d ends mid-record at %d", i, sp.End)
			}
			rows += CountRows(data[sp.Start:sp.End])
			pos = sp.End
		}
		if pos != len(data) {
			t.Fatalf("spans cover %d of %d bytes", pos, len(data))
		}
		if want := CountRows(data); rows != want {
			t.Fatalf("per-span rows sum to %d, whole file has %d (record split across morsels)", rows, want)
		}
	})
}

// FuzzScanLine drives the tokenizer primitives over arbitrary bytes: no
// panics, positions stay in bounds, and every primitive makes progress so
// scan loops terminate.
func FuzzScanLine(f *testing.F) {
	f.Add([]byte("1,2,3\n4,5,6\n"))
	f.Add([]byte(",,,\n"))
	f.Add([]byte("no newline at all"))
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		for steps := 0; pos < len(data); steps++ {
			if steps > len(data)+1 {
				t.Fatalf("tokenizer failed to terminate (pos=%d)", pos)
			}
			start, end, next := FieldBounds(data, pos)
			if start != pos || end < start || end > len(data) || next < end || next > len(data) {
				t.Fatalf("FieldBounds(%d) = (%d,%d,%d) out of order/bounds", pos, start, end, next)
			}
			if skip := SkipFields(data, pos, 1); skip != next {
				t.Fatalf("SkipFields(%d, 1) = %d, FieldBounds next = %d", pos, skip, next)
			}
			if next == pos {
				t.Fatalf("FieldBounds made no progress at %d", pos)
			}
			pos = next
		}
		// Row skipping must also progress and stay in bounds.
		pos = 0
		for steps := 0; pos < len(data); steps++ {
			if steps > len(data)+1 {
				t.Fatalf("SkipRow failed to terminate (pos=%d)", pos)
			}
			nxt := SkipRow(data, pos)
			if nxt <= pos || nxt > len(data) {
				t.Fatalf("SkipRow(%d) = %d", pos, nxt)
			}
			pos = nxt
		}
	})
}

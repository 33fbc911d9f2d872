// Package jsonfile implements the semi-structured raw-file substrate:
// low-level, zero-allocation scanner primitives over a memory-resident
// newline-delimited JSON (JSONL) file, and a writer used by the dataset
// generators.
//
// JSONL is the self-describing counterpart of CSV in the paper's taxonomy:
// field locations vary per row AND field order may vary per object, so a
// general-purpose scan must tokenize every byte of every row. The primitives
// here are free functions over a byte slice, exactly like package csvfile,
// so both a generic walk (FindPath) and the JIT access paths (which compile
// per-query matcher trees out of these calls) share one lexing core.
//
// Rows are one JSON object per line. Queries bind columns to dotted paths
// ("payload.energy"); only declared paths are visible, mirroring the partial
// schemas of the ROOT-like format.
package jsonfile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"rawdb/internal/bytesconv"
	"rawdb/internal/vector"
)

// skipWS advances past JSON insignificant whitespace within a row. Newlines
// are row terminators in JSONL and are deliberately NOT skipped.
func skipWS(data []byte, pos int) int {
	for pos < len(data) {
		switch data[pos] {
		case ' ', '\t', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

// EnterObject expects (after whitespace) an object opener at pos and returns
// the position just inside it. ok is false if the next byte is not '{'.
func EnterObject(data []byte, pos int) (int, bool) {
	pos = skipWS(data, pos)
	if pos >= len(data) || data[pos] != '{' {
		return pos, false
	}
	return pos + 1, true
}

// NextMember scans the next "key": value member of an object, with pos just
// inside the object or just past the previous member's value. It returns the
// key bounds (inside the quotes) and the position of the value's first byte.
// done is true (with next positioned past the closing brace) when the object
// ends instead.
func NextMember(data []byte, pos int) (keyStart, keyEnd, valPos, next int, done bool, err error) {
	pos = skipWS(data, pos)
	if pos < len(data) && data[pos] == ',' {
		pos = skipWS(data, pos+1)
	}
	if pos < len(data) && data[pos] == '}' {
		return 0, 0, 0, pos + 1, true, nil
	}
	if pos >= len(data) || data[pos] != '"' {
		return 0, 0, 0, pos, false, fmt.Errorf("jsonfile: expected key at offset %d", pos)
	}
	keyStart = pos + 1
	keyEnd = stringEnd(data, keyStart)
	if keyEnd < 0 {
		return 0, 0, 0, pos, false, fmt.Errorf("jsonfile: unterminated key at offset %d", pos)
	}
	pos = skipWS(data, keyEnd+1)
	if pos >= len(data) || data[pos] != ':' {
		return 0, 0, 0, pos, false, fmt.Errorf("jsonfile: expected ':' at offset %d", pos)
	}
	valPos = skipWS(data, pos+1)
	return keyStart, keyEnd, valPos, valPos, false, nil
}

// stringEnd returns the index of the closing quote of a string whose first
// content byte is at pos, honouring backslash escapes, or -1.
func stringEnd(data []byte, pos int) int {
	for pos < len(data) {
		switch data[pos] {
		case '\\':
			if pos+1 < len(data) && data[pos+1] == '\n' {
				return -1 // an escape cannot hide the row terminator
			}
			pos += 2
		case '"':
			return pos
		case '\n':
			return -1 // rows never span lines
		default:
			pos++
		}
	}
	return -1
}

// rowEnd returns the position of the newline ending the row that contains
// pos, or len(data): where a value that cannot be completed is given up.
func rowEnd(data []byte, pos int) int {
	if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
		return pos + i
	}
	return len(data)
}

// skipLiteral advances from pos over the longest prefix of lit that is
// there, so a misspelt true/false/null ends at its first wrong byte (for the
// caller to trip over) and never steps past the row terminator.
func skipLiteral(data []byte, pos int, lit string) int {
	for i := 0; i < len(lit) && pos < len(data) && data[pos] == lit[i]; i++ {
		pos++
	}
	return pos
}

// NumberEnd returns the position just past the number token starting at pos.
func NumberEnd(data []byte, pos int) int {
	for pos < len(data) {
		switch c := data[pos]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			pos++
		default:
			return pos
		}
	}
	return pos
}

// SkipValue advances past one JSON value (object, array, string, number or
// literal) starting at pos (whitespace allowed), returning the position just
// past it. A value never spans rows: a malformed one ends at the latest on
// the newline that ends its row.
func SkipValue(data []byte, pos int) int {
	pos = skipWS(data, pos)
	if pos >= len(data) {
		return pos
	}
	switch data[pos] {
	case '{', '[':
		depth := 0
		for pos < len(data) {
			switch data[pos] {
			case '{', '[':
				depth++
				pos++
			case '}', ']':
				depth--
				pos++
				if depth == 0 {
					return pos
				}
			case '"':
				end := stringEnd(data, pos+1)
				if end < 0 {
					return rowEnd(data, pos)
				}
				pos = end + 1
			case '\n':
				return pos // malformed: value may not span rows
			default:
				pos++
			}
		}
		return pos
	case '"':
		end := stringEnd(data, pos+1)
		if end < 0 {
			return rowEnd(data, pos)
		}
		return end + 1
	case 't':
		return skipLiteral(data, pos, "true")
	case 'n':
		return skipLiteral(data, pos, "null")
	case 'f':
		return skipLiteral(data, pos, "false")
	default:
		return NumberEnd(data, pos)
	}
}

// FindPath returns the byte offset of the value of the dotted path inside
// the object starting at pos (each segment descending one nested object), or
// -1 when any segment is absent. It is the generic, interpreted navigation
// that JIT access paths specialise away.
func FindPath(data []byte, pos int, path []string) int {
	return findPath(data, pos, path, nil)
}

// findPath is FindPath that, with a non-nil trail, also appends to it the
// offset of every value it skips on the way.
func findPath(data []byte, pos int, path []string, trail *[]int) int {
	for depth := 0; depth < len(path); depth++ {
		inner, ok := EnterObject(data, pos)
		if !ok {
			return -1
		}
		pos = inner
		found := -1
		for {
			ks, ke, vpos, next, done, err := NextMember(data, pos)
			if err != nil || done {
				break
			}
			if string(data[ks:ke]) == path[depth] {
				found = vpos
				break
			}
			if trail != nil {
				*trail = append(*trail, next)
			}
			pos = SkipValue(data, next)
		}
		if found < 0 {
			return -1
		}
		pos = found
	}
	return pos
}

// AtLiteral returns where the value after lit starts when lit is at pos byte
// for byte and the value starts right at its end: a walker that read up to a
// value over the literal's bytes would stop at the same offset. The skeleton
// walks (Skeleton, and the JIT scan's) match their literals by this rule.
func AtLiteral(data []byte, pos int, lit []byte) (int, bool) {
	vpos := pos + len(lit)
	if vpos >= len(data) || string(data[pos:vpos]) != string(lit) {
		return 0, false
	}
	if c := data[vpos]; c == ' ' || c == '\t' || c == '\r' {
		return 0, false // the value starts further on than where it was learned
	}
	return vpos, true
}

// A Skeleton finds one path in rows laid out like the last row FindPath
// walked for it. It keeps the literal bytes from that row's start to each
// value FindPath skipped, and then to the path's value, nesting included. On
// a row that carries every literal (AtLiteral) with the skipped values
// (SkipValue) in between, FindPath would read the same keys in the same
// order with the same whitespace, so it would stop at the same offset.
type Skeleton struct {
	path      []string
	lits      [][]byte // alias the learned row; empty: nothing learned
	trail     []int    // findPath's scratch
	misses    int      // consecutive departures
	maxMisses int      // departures in a row after which Find stops speculating
}

// NewSkeleton returns a skeleton for path that stops speculating after
// maxMisses consecutive rows depart from it.
func NewSkeleton(path []string, maxMisses int) *Skeleton {
	return &Skeleton{path: path, maxMisses: maxMisses}
}

// Find returns FindPath(data, rs, path): through the skeleton while the rows
// match it, and through FindPath, which relearns the skeleton, at any
// departure.
func (k *Skeleton) Find(data []byte, rs int) int {
	if k.misses >= k.maxMisses {
		return FindPath(data, rs, k.path)
	}
	if len(k.lits) > 0 {
		if pos, ok := k.replay(data, rs); ok {
			k.misses = 0
			return pos
		}
		k.misses++
	}
	k.trail = k.trail[:0]
	pos := findPath(data, rs, k.path, &k.trail)
	k.lits = k.lits[:0]
	if pos >= 0 {
		from := rs
		for _, v := range k.trail {
			k.lits = append(k.lits, data[from:v])
			from = SkipValue(data, v)
		}
		k.lits = append(k.lits, data[from:pos])
	}
	return pos
}

// replay walks the row at pos through the skeleton; ok is false at the first
// departure.
func (k *Skeleton) replay(data []byte, pos int) (int, bool) {
	last := len(k.lits) - 1
	for _, lit := range k.lits[:last] {
		vpos, ok := AtLiteral(data, pos, lit)
		if !ok {
			return 0, false
		}
		pos = SkipValue(data, vpos)
	}
	return AtLiteral(data, pos, k.lits[last])
}

// Int64At converts the number token at pos, whose first byte c the caller
// has loaded (0 past the end of data), and returns the offset past it: in one
// pass when c is a sign or a digit and the prefix parser takes the token,
// else delimited by NumberEnd and converted by ParseInt64. The value or the
// error is ParseInt64's for the token.
func Int64At(data []byte, pos int, c byte) (int64, int, error) {
	if c-'0' <= 9 || c == '-' {
		if v, end, ok := bytesconv.ParseInt64Prefix(data, pos); ok {
			return v, end, nil
		}
	}
	end := NumberEnd(data, pos)
	v, err := bytesconv.ParseInt64(data[pos:end])
	return v, end, err
}

// Float64At is Int64At for ParseFloat64.
func Float64At(data []byte, pos int, c byte) (float64, int, error) {
	if c-'0' <= 9 || c == '-' {
		if v, end, ok := bytesconv.ParseFloat64Prefix(data, pos); ok {
			return v, end, nil
		}
	}
	end := NumberEnd(data, pos)
	v, err := bytesconv.ParseFloat64(data[pos:end])
	return v, end, err
}

// SplitPath splits a dotted path into its segments.
func SplitPath(path string) []string { return strings.Split(path, ".") }

// NextRow returns the position of the first byte of the row after the one
// containing pos.
func NextRow(data []byte, pos int) int {
	if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
		return pos + i + 1
	}
	return len(data)
}

// A Span is one morsel of a JSONL file: the half-open byte range
// [Start, End). Spans produced by Split are contiguous, non-empty, cover the
// file exactly once, and every span boundary sits just past a newline, so no
// object row is ever split across morsels.
type Span struct {
	Start, End int
}

// Split cuts data into at most n row-aligned morsels of roughly equal size.
// Each span except possibly the last ends immediately after a '\n'; a file
// with fewer rows than n yields fewer spans.
func Split(data []byte, n int) []Span {
	if len(data) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	spans := make([]Span, 0, n)
	start := 0
	for i := 1; i < n && start < len(data); i++ {
		cut := len(data) * i / n
		if cut <= start {
			continue
		}
		j := bytes.IndexByte(data[cut:], '\n')
		if j < 0 {
			break // no further newline: the remainder is one span
		}
		boundary := cut + j + 1
		if boundary >= len(data) {
			break
		}
		if boundary <= start {
			continue
		}
		spans = append(spans, Span{start, boundary})
		start = boundary
	}
	if start < len(data) {
		spans = append(spans, Span{start, len(data)})
	}
	return spans
}

// CountRows counts newline-terminated rows; a non-empty trailing fragment
// without a final newline counts as one row.
func CountRows(data []byte) int64 {
	n := int64(bytes.Count(data, []byte{'\n'}))
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// Field declares one leaf the Writer emits: a dotted path and its type.
type Field struct {
	Path string
	Type vector.Type
}

// wstep is one compiled emission step: write the literal chunk, then (unless
// typ is the sentinel wNone) the next value of that type.
type wstep struct {
	chunk []byte
	typ   vector.Type
	end   bool // chunk-only closing step
}

// A Writer emits JSONL rows with a fixed member layout compiled from the
// declared fields: nesting punctuation and keys are precomputed into literal
// chunks so WriteRow only formats values. It exists for the dataset
// generators and tests; query execution never writes JSON.
type Writer struct {
	bw    *bufio.Writer
	steps []wstep
	buf   []byte
	rows  int64
}

// NewWriter returns a Writer emitting one object per row with the given
// fields in declaration order. Consecutive fields sharing dotted-path
// prefixes nest into shared objects ("a.b", "a.c" → {"a":{"b":…,"c":…}}).
// Field lists that would force a duplicate key — the same path twice, a path
// that is also a prefix of another, or fields sharing a prefix declared
// non-consecutively (the shared object would have to reopen) — are rejected.
func NewWriter(w io.Writer, fields []Field) (*Writer, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("jsonfile: writer needs at least one field")
	}
	jw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	leaves := make(map[string]bool)
	sealed := make(map[string]bool) // prefix objects already closed
	var open []string               // open[d] = joined prefix of depth d+1
	for i, f := range fields {
		segs := SplitPath(f.Path)
		for _, s := range segs {
			if s == "" {
				return nil, fmt.Errorf("jsonfile: field %q has an empty path segment", f.Path)
			}
		}
		switch f.Type {
		case vector.Int64, vector.Float64:
		default:
			return nil, fmt.Errorf("jsonfile: unsupported field type %s", f.Type)
		}
		if leaves[f.Path] {
			return nil, fmt.Errorf("jsonfile: duplicate field %q", f.Path)
		}
		leaves[f.Path] = true
		// Parent object prefixes of this field, outermost first.
		parents := make([]string, len(segs)-1)
		for d := range parents {
			parents[d] = strings.Join(segs[:d+1], ".")
		}
		common := 0
		for common < len(open) && common < len(parents) && open[common] == parents[common] {
			common++
		}
		var chunk []byte
		if i == 0 {
			chunk = append(chunk, '{')
		} else {
			for d := len(open) - 1; d >= common; d-- {
				sealed[open[d]] = true
				chunk = append(chunk, '}')
			}
			chunk = append(chunk, ',')
		}
		for d := common; d < len(parents); d++ {
			if sealed[parents[d]] {
				return nil, fmt.Errorf("jsonfile: fields under %q are not consecutive (object would repeat)",
					parents[d])
			}
			if leaves[parents[d]] {
				return nil, fmt.Errorf("jsonfile: field %q conflicts with nested field %q",
					parents[d], f.Path)
			}
			chunk = append(chunk, '"')
			chunk = append(chunk, segs[d]...)
			chunk = append(chunk, '"', ':', '{')
		}
		if sealed[f.Path] {
			return nil, fmt.Errorf("jsonfile: field %q conflicts with an object of the same path", f.Path)
		}
		chunk = append(chunk, '"')
		chunk = append(chunk, segs[len(segs)-1]...)
		chunk = append(chunk, '"', ':')
		jw.steps = append(jw.steps, wstep{chunk: chunk, typ: f.Type})
		open = append(open[:common], parents[common:]...)
	}
	var closing []byte
	for range open {
		closing = append(closing, '}')
	}
	closing = append(closing, '}', '\n')
	jw.steps = append(jw.steps, wstep{chunk: closing, end: true})
	return jw, nil
}

// WriteRow writes one row; int64 values feed Int64 fields and float64 values
// feed Float64 fields, each in declaration order (the csvfile convention).
func (w *Writer) WriteRow(ints []int64, floats []float64) error {
	w.buf = w.buf[:0]
	ii, fi := 0, 0
	for _, st := range w.steps {
		w.buf = append(w.buf, st.chunk...)
		if st.end {
			break
		}
		switch st.typ {
		case vector.Int64:
			if ii >= len(ints) {
				return fmt.Errorf("jsonfile: row has %d int values, writer needs more", len(ints))
			}
			w.buf = bytesconv.AppendInt64(w.buf, ints[ii])
			ii++
		case vector.Float64:
			if fi >= len(floats) {
				return fmt.Errorf("jsonfile: row has %d float values, writer needs more", len(floats))
			}
			w.buf = bytesconv.AppendFloat6(w.buf, floats[fi])
			fi++
		}
	}
	w.rows++
	_, err := w.bw.Write(w.buf)
	return err
}

// Rows returns the number of rows written so far.
func (w *Writer) Rows() int64 { return w.rows }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

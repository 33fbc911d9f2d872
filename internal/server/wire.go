package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"rawdb/internal/vector"
)

// Wire format. Both protocols (HTTP/JSON and the line protocol) exchange the
// same request/response objects, and every cell crosses the wire as a STRING
// paired with a column type name. JSON numbers are float64 on the floor of
// every decoder, which silently rounds int64s above 2^53 and denormalises
// float bit patterns; strings dodge that entirely. Integers are formatted in
// base 10 and floats with strconv's shortest round-trip form ('g', -1), so
// decoding with the type name reproduces the exact bits the engine computed —
// the property difftest's server mode asserts against in-process execution.

// Request is one query submission.
type Request struct {
	Query string `json:"query"`
	// TimeoutMillis, when positive, sets a client-side deadline for this
	// query; the server cancels the running plan when it expires.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Workers, when positive, overrides the engine's morsel-parallel worker
	// count for this query (<=1 forces the serial plan).
	Workers int `json:"workers,omitempty"`
}

// Response carries one query's result set or its error (never both).
type Response struct {
	Columns []string   `json:"columns,omitempty"`
	Types   []string   `json:"types,omitempty"` // BIGINT, DOUBLE, BOOLEAN, VARCHAR
	Rows    [][]string `json:"rows,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// appendResult appends one successful response line from a result's column
// vectors, byte for byte what json.Encoder writes for the equivalent Response
// (omitempty, HTML-safe escaping, trailing newline); FuzzWireEncode holds it
// to that. Numbers and booleans are appended in place between quotes, where
// they never need escaping; no cell becomes a string of its own.
func appendResult(dst []byte, names []string, types []vector.Type, cols []*vector.Vector) []byte {
	dst = appendList(append(dst, '{'), "columns", len(names), func(i int) string { return names[i] })
	dst = appendList(dst, "types", len(types), func(i int) string { return types[i].String() })
	if len(cols) > 0 && cols[0].Len() > 0 {
		dst = appendKey(dst, "rows")
		for r := range cols[0].Len() {
			if r > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for c, v := range cols {
				if c > 0 {
					dst = append(dst, ',')
				}
				switch types[c] {
				case vector.Int64:
					dst = append(strconv.AppendInt(append(dst, '"'), v.Int64s[r], 10), '"')
				case vector.Float64:
					dst = append(strconv.AppendFloat(append(dst, '"'), v.Float64s[r], 'g', -1, 64), '"')
				case vector.Bool:
					dst = append(strconv.AppendBool(append(dst, '"'), v.Bools[r]), '"')
				default: // vector.Bytes
					dst = appendJSONString(dst, v.Bytess[r])
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendError appends the response line of Response{Error: msg}.
func appendError(dst []byte, msg string) []byte {
	if msg == "" {
		return append(dst, "{}\n"...)
	}
	return append(appendJSONString(append(dst, `{"error":`...), msg), "}\n"...)
}

// appendList appends an array member of n strings, omitted when empty.
func appendList(dst []byte, key string, n int, at func(int) string) []byte {
	if n == 0 {
		return dst
	}
	dst = appendKey(dst, key)
	for i := range n {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, at(i))
	}
	return append(dst, ']')
}

// appendKey opens an array member, after a comma unless it is the object's
// first.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(append(append(dst, '"'), key...), `":[`...)
}

// appendJSONString appends s as a JSON string the way encoding/json does with
// HTML escaping on: `"` and `\` backslash-escaped, \b \f \n \r \t by name,
// other control bytes and < > & as \u00XX, each invalid UTF-8 byte as
// \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString[T string | []byte](dst []byte, s T) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// decodeResponse decodes one response line. What the server writes has one
// canonical shape — {"columns":[…],"types":[…],"rows":[[…],…],"error":"…"},
// each member optional but in that order, arrays non-empty, rows of equal
// width, strings free of escapes and non-ASCII bytes — and that shape is
// sliced out of one string by hand: every cell a substring, all rows windows
// of one flat slice. Any byte outside it hands the whole line to
// json.Unmarshal, so the result equals json.Unmarshal's on every input
// (FuzzWireDecode).
func decodeResponse(line []byte) (*Response, error) {
	s := string(line)
	p := canonParser{s: s, cells: make([]string, 0, strings.Count(s, `"`)/2)}
	resp := &Response{}
	ok := p.lit("{")
	if ok && p.member(`"columns":`) {
		resp.Columns, ok = p.list()
	}
	if ok && p.member(`"types":`) {
		resp.Types, ok = p.list()
	}
	if ok && p.member(`"rows":[`) {
		from, width := len(p.cells), 0
		for more := true; ok && more; more = p.lit(",") {
			var row []string
			row, ok = p.list()
			ok = ok && (width == 0 || len(row) == width)
			width = len(row)
		}
		if ok = ok && p.lit("]"); ok {
			flat := p.cells[from:]
			resp.Rows = make([][]string, len(flat)/width)
			for r := range resp.Rows {
				resp.Rows[r] = flat[r*width : (r+1)*width : (r+1)*width]
			}
		}
	}
	if ok && p.member(`"error":`) {
		resp.Error, ok = p.str()
	}
	if ok && p.lit("}") && p.i == len(s) {
		return resp, nil
	}
	resp = &Response{}
	return resp, json.Unmarshal(line, resp)
}

// canonParser reads the canonical response shape; cells collects every
// string it reads, so member arrays are windows of one allocation.
type canonParser struct {
	s     string
	i     int
	cells []string
}

func (p *canonParser) lit(l string) bool {
	ok := strings.HasPrefix(p.s[p.i:], l)
	if ok {
		p.i += len(l)
	}
	return ok
}

// member consumes a member's prefix, after a comma unless it is the object's
// first.
func (p *canonParser) member(prefix string) bool {
	i := p.i
	if (p.s[i-1] == '{' || p.lit(",")) && p.lit(prefix) {
		return true
	}
	p.i = i
	return false
}

// str reads a string with no escape, control or non-ASCII byte.
func (p *canonParser) str() (string, bool) {
	if !p.lit(`"`) {
		return "", false
	}
	for j := p.i; j < len(p.s); j++ {
		if c := p.s[j]; c == '"' {
			v := p.s[p.i:j]
			p.i = j + 1
			return v, true
		} else if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	return "", false
}

// list reads a non-empty array of strings into cells and returns its window.
func (p *canonParser) list() ([]string, bool) {
	from := len(p.cells)
	for more := p.lit("["); more; more = p.lit(",") {
		v, ok := p.str()
		if !ok {
			return nil, false
		}
		p.cells = append(p.cells, v)
	}
	n := len(p.cells)
	return p.cells[from:n:n], n > from && p.lit("]")
}

// DecodeCell parses one wire cell back into its engine value using the
// column's wire type name. The round trip is exact: FormatInt/ParseInt are
// inverses over all of int64, and ParseFloat of a shortest-form 'g' string
// returns the identical float64 bits.
func DecodeCell(typeName, cell string) (any, error) {
	switch typeName {
	case "BIGINT":
		return strconv.ParseInt(cell, 10, 64)
	case "DOUBLE":
		return strconv.ParseFloat(cell, 64)
	case "BOOLEAN":
		return strconv.ParseBool(cell)
	case "VARCHAR":
		return cell, nil
	default:
		return nil, fmt.Errorf("server: unknown wire type %q", typeName)
	}
}

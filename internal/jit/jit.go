// Package jit implements Just-In-Time access paths, the paper's core
// contribution: scan operators generated per file format, per schema and per
// query, eliminating the interpretation overhead of general-purpose scans.
//
// Substitution note (documented in DESIGN.md): the paper generates C++
// through macros, compiles it on the fly and dlopens the result, and caches
// the compiled libraries because compilation takes seconds. Go has no
// supported runtime machine-code generation, so "code generation" here means
// closure specialisation: at construction time each access path is assembled
// as a flat chain of monomorphic step closures with all decisions — column
// unrolling, conversion function choice, positional-map actions, binary
// offsets, inlined predicates — resolved before the first row is read. The
// inner loops contain no type switches and no catalog lookups, which is the
// same property the paper's generated code achieves. Assembling a chain
// costs microseconds, so every query builds its own and nothing is cached;
// the paper's compilation latency is modelled only by the harness that
// plots Figure 1a (internal/experiments).
package jit

// Mode distinguishes the access-path families: how a scan reaches the rows
// and fields it reads.
type Mode uint8

// Access path modes.
const (
	// Sequential parses the file front to back (first query over a file).
	Sequential Mode = iota
	// ViaMap navigates with a positional map (later queries, CSV).
	ViaMap
	// Direct computes positions from the schema (binary) or uses id-based
	// library access (root).
	Direct
	// Late reads one or more columns for a set of surviving row ids — the
	// column-shred access path.
	Late
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Sequential:
		return "seq"
	case ViaMap:
		return "viamap"
	case Direct:
		return "direct"
	case Late:
		return "late"
	default:
		return "?"
	}
}

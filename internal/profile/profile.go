// Package profile measures the cost breakdown of raw-data access that the
// paper reports in Figure 3: how much of a scan's time goes to the main
// (per-row/per-column) loop, to tokenizing ("parsing"), to data type
// conversion, and to building the output columns — for the general-purpose
// in-situ scan versus the JIT access path.
//
// The methodology is subtractive, the standard way to attribute interleaved
// inner-loop costs without per-field timers: the same scan is run in four
// cumulative stages (loop only; +tokenize; +convert; +build), and each
// phase's cost is the delta between consecutive stages. Both variants scan
// the same memory-resident CSV image and materialise the same columns.
package profile

import (
	"fmt"
	"time"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/vector"
)

// Breakdown is the per-phase cost of one scan over one file.
type Breakdown struct {
	MainLoop time.Duration
	Parsing  time.Duration
	Convert  time.Duration
	Build    time.Duration
}

// Total returns the full scan cost.
func (b Breakdown) Total() time.Duration {
	return b.MainLoop + b.Parsing + b.Convert + b.Build
}

// String formats the breakdown as percentages of the total.
func (b Breakdown) String() string {
	tot := b.Total()
	if tot == 0 {
		return "empty"
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(tot) }
	return fmt.Sprintf("total=%v main=%.0f%% parse=%.0f%% convert=%.0f%% build=%.0f%%",
		tot.Round(time.Millisecond), pct(b.MainLoop), pct(b.Parsing), pct(b.Convert), pct(b.Build))
}

// stage selects how much work a measurement pass performs.
type stage int

const (
	stageLoop stage = iota
	stageTokenize
	stageConvert
	stageBuild
)

// GenericCSV measures the general-purpose in-situ scan: a per-row loop over
// all columns with per-column membership checks and a type switch per field.
func GenericCSV(data []byte, tab *catalog.Table, need []int) (Breakdown, error) {
	times := make([]time.Duration, 4)
	for s := stageLoop; s <= stageBuild; s++ {
		start := time.Now()
		if err := genericPass(data, tab, need, s); err != nil {
			return Breakdown{}, err
		}
		times[s] = time.Since(start)
	}
	return deltas(times), nil
}

// JITCSV measures the specialised access path: column membership, order and
// conversion functions resolved before the loop, one monomorphic action per
// needed column.
func JITCSV(data []byte, tab *catalog.Table, need []int) (Breakdown, error) {
	times := make([]time.Duration, 4)
	for s := stageLoop; s <= stageBuild; s++ {
		start := time.Now()
		if err := jitPass(data, tab, need, s); err != nil {
			return Breakdown{}, err
		}
		times[s] = time.Since(start)
	}
	return deltas(times), nil
}

func deltas(times []time.Duration) Breakdown {
	b := Breakdown{MainLoop: times[stageLoop]}
	b.Parsing = clampPos(times[stageTokenize] - times[stageLoop])
	b.Convert = clampPos(times[stageConvert] - times[stageTokenize])
	b.Build = clampPos(times[stageBuild] - times[stageConvert])
	return b
}

func clampPos(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

var sink int64 // defeats dead-code elimination across passes

func genericPass(data []byte, tab *catalog.Table, need []int, s stage) error {
	needSet := make(map[int]int, len(need))
	for i, c := range need {
		needSet[c] = i
	}
	out := make([]*vector.Vector, len(need))
	for i, c := range need {
		out[i] = vector.New(tab.Schema[c].Type, 1024)
	}
	ncols := len(tab.Schema)
	pos := 0
	var localSink int64
	for pos < len(data) {
		// Generic per-column loop with runtime checks — present in every
		// stage; this IS the main-loop cost of the interpretive scan.
		for c := 0; c < ncols; c++ {
			slot, needed := needSet[c]
			if !needed || s == stageLoop {
				pos = csvfile.SkipFields(data, pos, 1)
				continue
			}
			start, end, next := csvfile.FieldBounds(data, pos)
			pos = next
			if s == stageTokenize {
				localSink += int64(end - start)
				continue
			}
			switch tab.Schema[c].Type {
			case vector.Int64:
				v, err := bytesconv.ParseInt64(data[start:end])
				if err != nil {
					return err
				}
				if s == stageConvert {
					localSink += v
				} else {
					out[slot].AppendInt64(v)
				}
			case vector.Float64:
				v, err := bytesconv.ParseFloat64(data[start:end])
				if err != nil {
					return err
				}
				if s == stageConvert {
					localSink += int64(v)
				} else {
					out[slot].AppendFloat64(v)
				}
			default:
				return fmt.Errorf("profile: unsupported type %s", tab.Schema[c].Type)
			}
		}
	}
	sink += localSink
	return nil
}

func jitPass(data []byte, tab *catalog.Table, need []int, s stage) error {
	// "Generated" pass: the column walk is resolved here, before the loop,
	// into a flat action list with constants and monomorphic bodies.
	type action struct {
		skipBefore int
		slot       int
		isInt      bool
	}
	needSet := make(map[int]int, len(need))
	for i, c := range need {
		needSet[c] = i
	}
	var acts []action
	skip := 0
	last := -1
	for c := 0; c < len(tab.Schema); c++ {
		slot, ok := needSet[c]
		if !ok {
			skip++
			continue
		}
		acts = append(acts, action{skipBefore: skip, slot: slot, isInt: tab.Schema[c].Type == vector.Int64})
		skip = 0
		last = c
	}
	trailing := len(tab.Schema) - 1 - last
	out := make([]*vector.Vector, len(need))
	for i, c := range need {
		out[i] = vector.New(tab.Schema[c].Type, 1024)
	}
	pos := 0
	var localSink int64
	for pos < len(data) {
		for _, a := range acts {
			if a.skipBefore > 0 {
				pos = csvfile.SkipFields(data, pos, a.skipBefore)
			}
			if s == stageLoop {
				pos = csvfile.SkipFields(data, pos, 1)
				continue
			}
			start, end, next := csvfile.FieldBounds(data, pos)
			pos = next
			if s == stageTokenize {
				localSink += int64(end - start)
				continue
			}
			if a.isInt {
				v := bytesconv.ParseInt64Fast(data[start:end])
				if s == stageConvert {
					localSink += v
				} else {
					out[a.slot].AppendInt64(v)
				}
			} else {
				v, err := bytesconv.ParseFloat64(data[start:end])
				if err != nil {
					return err
				}
				if s == stageConvert {
					localSink += int64(v)
				} else {
					out[a.slot].AppendFloat64(v)
				}
			}
		}
		if trailing > 0 {
			pos = csvfile.SkipFields(data, pos, trailing)
		}
	}
	sink += localSink
	return nil
}

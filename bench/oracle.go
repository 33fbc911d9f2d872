package main

import (
	"math/big"
	"slices"
	"strconv"
	"strings"

	raw "rawdb"
)

// The oracle: expected answers computed in set-up by naive loops over the
// table's decoded columns. Answers are compared in the wire's canonical text
// form (base-10 integers, shortest round-trip floats), which is bit-exact for
// both types, as a sorted list of rows so result order never matters.

type answer []string

const cellSep = "|"

func intCell(v int64) string     { return strconv.FormatInt(v, 10) }
func floatCell(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// resultAnswer renders an in-process result in the oracle's form.
func resultAnswer(res *raw.Result) answer {
	out := make(answer, res.NumRows())
	cells := make([]string, len(res.Columns))
	for r := range out {
		for c := range cells {
			switch v := res.Value(r, c).(type) {
			case int64:
				cells[c] = intCell(v)
			case float64:
				cells[c] = floatCell(v)
			default:
				cells[c] = "?"
			}
		}
		out[r] = strings.Join(cells, cellSep)
	}
	slices.Sort(out)
	return out
}

// wireAnswer renders a wire response (cells already canonical text).
func wireAnswer(rows [][]string) answer {
	out := make(answer, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, cellSep)
	}
	slices.Sort(out)
	return out
}

type aggFn int

const (
	aggMax aggFn = iota
	aggSum
	aggAvg
	aggCount
)

// agg is one aggregate over a column of a table; col is ignored for COUNT(*).
type agg struct {
	fn  aggFn
	t   *table
	col int
}

// accum folds one aggregate. Float SUM/AVG accumulate exactly in a big.Float
// wide enough for any float64 sum and round to float64 once at the end.
type accum struct {
	agg
	n    int64
	imax int64
	isum int64
	fmax float64
	fsum big.Float
}

func newAccums(aggs []agg) []accum {
	out := make([]accum, len(aggs))
	for i, a := range aggs {
		out[i].agg = a
		out[i].fsum.SetPrec(2200)
	}
	return out
}

// add folds row r of the aggregate's table.
func (a *accum) add(r int) {
	first := a.n == 0
	a.n++
	if a.fn == aggCount {
		return
	}
	if ints := a.t.ints[a.col]; ints != nil {
		v := ints[r]
		if first || v > a.imax {
			a.imax = v
		}
		a.isum += v
		return
	}
	v := a.t.floats[a.col][r]
	if first || v > a.fmax {
		a.fmax = v
	}
	if a.fn != aggMax {
		a.fsum.Add(&a.fsum, new(big.Float).SetFloat64(v))
	}
}

func (a *accum) cell() string {
	isInt := a.fn != aggCount && a.t.ints[a.col] != nil
	switch a.fn {
	case aggCount:
		return intCell(a.n)
	case aggMax:
		if isInt {
			return intCell(a.imax)
		}
		return floatCell(a.fmax)
	case aggSum:
		if isInt {
			return intCell(a.isum)
		}
		f, _ := a.fsum.Float64()
		return floatCell(f)
	default: // aggAvg: the once-rounded sum over the count
		sum := float64(a.isum)
		if !isInt {
			sum, _ = a.fsum.Float64()
		}
		return floatCell(sum / float64(a.n))
	}
}

func cells(accs []accum) string {
	parts := make([]string, len(accs))
	for i := range accs {
		parts[i] = accs[i].cell()
	}
	return strings.Join(parts, cellSep)
}

// aggregate answers SELECT aggs FROM t WHERE filterCol < lt.
func aggregate(t *table, aggs []agg, filterCol int, lt int64) answer {
	accs := newAccums(aggs)
	f := t.ints[filterCol]
	for r := 0; r < t.rows; r++ {
		if f[r] < lt {
			for i := range accs {
				accs[i].add(r)
			}
		}
	}
	return answer{cells(accs)}
}

// groupBy answers SELECT key, aggs FROM t GROUP BY key, keeping the groups
// keep accepts (HAVING); a nil keep keeps all.
func groupBy(t *table, key int, aggs []agg, keep func(accs []accum) bool) answer {
	groups := make(map[int64][]accum)
	for r, k := range t.ints[key] {
		accs, ok := groups[k]
		if !ok {
			accs = newAccums(aggs)
			groups[k] = accs
		}
		for i := range accs {
			accs[i].add(r)
		}
	}
	out := make(answer, 0, len(groups))
	for k, accs := range groups {
		if keep == nil || keep(accs) {
			out = append(out, intCell(k)+cellSep+cells(accs))
		}
	}
	slices.Sort(out)
	return out
}

// joinAggregate answers SELECT aggs FROM a, b WHERE a.key = b.key AND
// b.filterCol < lt, for a unique key on b. Each agg names the side it reads.
func joinAggregate(a, b *table, key int, aggs []agg, filterCol int, lt int64) answer {
	index := make(map[int64]int, b.rows)
	for r, k := range b.ints[key] {
		index[k] = r
	}
	accs := newAccums(aggs)
	f := b.ints[filterCol]
	for ra, k := range a.ints[key] {
		rb, ok := index[k]
		if !ok || f[rb] >= lt {
			continue
		}
		for i := range accs {
			if accs[i].t == b {
				accs[i].add(rb)
			} else {
				accs[i].add(ra)
			}
		}
	}
	return answer{cells(accs)}
}

// selectRows answers SELECT cols FROM t WHERE filterCol < lt.
func selectRows(t *table, cols []int, filterCol int, lt int64) answer {
	var out answer
	parts := make([]string, len(cols))
	for r, v := range t.ints[filterCol] {
		if v < lt {
			for i, c := range cols {
				parts[i] = intCell(t.ints[c][r])
			}
			out = append(out, strings.Join(parts, cellSep))
		}
	}
	slices.Sort(out)
	return out
}

// pick returns the rows of t that keep accepts, as a table.
func (t *table) pick(keep func(r int) bool) *table {
	out := &table{schema: t.schema, ints: make([][]int64, len(t.ints)), floats: make([][]float64, len(t.floats))}
	for r := 0; r < t.rows; r++ {
		if !keep(r) {
			continue
		}
		out.rows++
		for c := range t.schema {
			if t.ints[c] != nil {
				out.ints[c] = append(out.ints[c], t.ints[c][r])
			} else {
				out.floats[c] = append(out.floats[c], t.floats[c][r])
			}
		}
	}
	return out
}

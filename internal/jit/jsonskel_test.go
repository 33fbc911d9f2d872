package jit

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jsonidx"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// The sequential JSON scan speculates that a row is laid out like the one
// before it (walkSkeleton). These tests hold the speculation to the general
// walker, which stays reachable by clearing JSONScan.speculate: whatever the
// bytes, both must produce the same batches, structural index, synopsis,
// pruning counters and error.

var skelTable = &catalog.Table{Name: "t", Format: catalog.JSON, Schema: []catalog.Column{
	{Name: "a", Type: vector.Int64},
	{Name: "b", Type: vector.Float64},
	{Name: "n.c", Type: vector.Int64},
	{Name: "n.d", Type: vector.Float64},
}}

// skelOutcome runs one sequential scan to its end (or its error) and renders
// everything it produced and left behind.
func skelOutcome(t testing.TB, data []byte, need []int, preds []exec.Pred, speculate bool) (string, *JSONScan) {
	t.Helper()
	idx := jsonidx.New()
	types := make(map[int]vector.Type)
	for _, c := range need {
		types[c] = skelTable.Schema[c].Type
	}
	syn := synopsis.NewBuilder(5, types)
	s, err := NewJSONSequentialScanPush(data, skelTable, need, idx, need, true, 7, Pushdown{Preds: preds, Syn: syn})
	if err != nil {
		t.Fatal(err)
	}
	s.speculate = speculate
	var out strings.Builder
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := s.Next()
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
			break
		}
		if b == nil {
			break
		}
		fmt.Fprintf(&out, "batch sel=%v", b.Sel)
		for _, c := range b.Cols {
			fmt.Fprintf(&out, " %v%v", c.Int64s, c.Float64s)
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(&out, "rows %v\n", idx.RowStarts().Decode(nil, 0, idx.NRows()))
	for _, p := range idx.TrackedPaths() {
		fmt.Fprintf(&out, "path %s %v\n", p, idx.Positions(p).Decode(nil, 0, idx.NRows()))
	}
	if fin := syn.Finish(); fin != nil {
		fmt.Fprintf(&out, "syn %d %v\n", fin.NRows(), fin.Bounds())
		for _, c := range fin.Columns() {
			fmt.Fprintf(&out, "syn col %d %v %v %v %v\n", c.Col, c.IMin, c.IMax, c.FMin, c.FMax)
		}
	}
	pruned, skipped := s.PushStats()
	fmt.Fprintf(&out, "pruned %d skipped %d\n", pruned, skipped)
	return out.String(), s
}

var skelPreds = [][]exec.Pred{
	nil,
	{{Col: 0, Op: exec.Lt, I64: 50}},
	{{Col: 3, Op: exec.Gt, F64: 0.5}, {Col: 0, Op: exec.Ge, I64: 10}},
}

// skelCompare holds the speculating scan to the general walker over data, for
// several column sets with pushed predicates off and on. It returns the last
// speculating scan, for the caller to inspect how the speculation fared.
func skelCompare(t testing.TB, data []byte) *JSONScan {
	t.Helper()
	var last *JSONScan
	for _, need := range [][]int{{0, 1, 2, 3}, {0, 3}, {2}} {
		for _, preds := range skelPreds {
			var ps []exec.Pred
			for _, p := range preds {
				for _, c := range need {
					if p.Col == c {
						ps = append(ps, p)
					}
				}
			}
			want, _ := skelOutcome(t, data, need, ps, false)
			got, s := skelOutcome(t, data, need, ps, true)
			if got != want {
				t.Fatalf("need %v preds %v over\n%s\nspeculating:\n%s\ngeneral walker:\n%s", need, ps, data, got, want)
			}
			last = s
		}
	}
	return last
}

// skelRow renders one row. layout picks member order, whitespace and what the
// unrequested members hold; vals are the raw texts of a, b, n.c and n.d.
func skelRow(buf *bytes.Buffer, layout int, vals [4]string) {
	sp := [...]string{"", " ", "", "\t"}[layout%4]
	extras := [...]string{`"s\"}{"`, `[1,{"a":2},"]"]`, `{"a":{"c":1},"n":[]}`, `true`, `null`, `false`, `-12.5e3`}
	top := []string{
		`"a":` + sp + vals[0],
		`"b"` + sp + `:` + vals[1],
		`"x":` + extras[layout%len(extras)],
	}
	inner := []string{`"c":` + vals[2], `"d":` + sp + vals[3]}
	if layout/4%2 == 1 {
		inner[0], inner[1] = inner[1], inner[0]
	}
	if layout/8%2 == 1 {
		inner = append(inner, `"y":`+extras[(layout+3)%len(extras)])
	}
	top = append(top, `"n":`+sp+`{`+strings.Join(inner, sp+`,`)+sp+`}`)
	for i := layout / 16 % 4; i > 0; i-- { // rotate the member order
		top = append(top[1:], top[0])
	}
	buf.WriteString(sp + `{` + strings.Join(top, `,`+sp) + `}` + sp + "\n")
}

func skelVals(rng *rand.Rand) [4]string {
	return [4]string{
		fmt.Sprint(rng.Intn(100)),
		fmt.Sprintf("%.3f", rng.Float64()*100-50),
		fmt.Sprint(rng.Int63n(1 << 40)),
		fmt.Sprintf("%.6f", rng.Float64()),
	}
}

// skelFile renders rows rows; layoutOf gives each row's layout.
func skelFile(seed int64, rows int, layoutOf func(r int, rng *rand.Rand) int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for r := 0; r < rows; r++ {
		skelRow(&buf, layoutOf(r, rng), skelVals(rng))
	}
	return buf.Bytes()
}

func TestJSONSkeletonAgainstWalker(t *testing.T) {
	t.Run("stable", func(t *testing.T) {
		for layout := 0; layout < 64; layout += 5 {
			s := skelCompare(t, skelFile(int64(layout), 40, func(int, *rand.Rand) int { return layout }))
			if s.tail == nil || !s.speculate {
				t.Fatalf("layout %d: a layout-stable file ended without a skeleton (speculate=%v)", layout, s.speculate)
			}
		}
	})
	t.Run("shifts once", func(t *testing.T) {
		for layout := 0; layout < 64; layout += 7 {
			s := skelCompare(t, skelFile(int64(layout), 40, func(r int, _ *rand.Rand) int {
				if r < 17 {
					return layout
				}
				return layout + 21
			}))
			if s.tail == nil || !s.speculate {
				t.Fatalf("layout %d: the scan did not re-learn after one shift", layout)
			}
		}
	})
	t.Run("shuffles per row", func(t *testing.T) {
		s := skelCompare(t, skelFile(3, 60, func(r int, _ *rand.Rand) int { return r * 13 }))
		if s.speculate {
			t.Fatal("the scan kept speculating over a file with no stable layout")
		}
		skelCompare(t, skelFile(4, 60, func(_ int, rng *rand.Rand) int { return rng.Intn(3) * 16 }))
	})
	t.Run("odd rows", func(t *testing.T) {
		stable := func(rows int) string {
			return string(skelFile(9, rows, func(int, *rand.Rand) int { return 0 }))
		}
		odd := []string{
			`{"a":77,"b": 2.5,"x":"s\"}{","n":{"c": 3,"d": 0.25}}`,  // values set off by whitespace
			`{"a":1,"b":2.5,"x":"s","n":{"c":3}}`,                   // n.d missing
			`{"a":1,"b":2.5,"x":"s"}`,                               // n missing
			`{"a":1,"a":2,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`,    // a twice
			`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25},"n":{}}`,   // n twice, empty
			`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25},"z":[[]]}`, // extra member
			`{"a":1.5,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`,        // fraction in an int path
			`{"a":1e3,"b":1e3,"x":"s","n":{"c":3,"d":2E-2}}`,        // exponents
			`{"a":+7,"b":+7.5,"x":"s","n":{"c":3,"d":0.25}}`,        // explicit plus
			`{"a":1234567890123456789,"b":1234567890123456789.5,"x":"s","n":{"c":3,"d":0.1234567890123456789}}`,
			`{"a":12345678901234567890,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`, // overflows int64
			`{"a":-,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`,
			`{"a":1,"b":.5,"x":"s","n":{"c":-0,"d":-0.0}}`,
			`{"a":1,"b":"2.5","x":"s","n":{"c":3,"d":0.25}}`, // string where a number belongs
			`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25}} trailing`,
			`{"a":1,"b":2.5,"x":tru,"n":{"c":3,"d":0.25}}`,
			`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25}`, // object left open
			`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25x}}`,
			`{"a":1,"b":2.5,"x":"s\`, // an escape up against the row's end
			`[1,2]`,
			``, // a blank line
		}
		for _, row := range odd {
			for _, at := range []int{0, 1, 12} { // first row, second row, mid-file
				skelCompare(t, []byte(stable(at)+row+"\n"+stable(6)))
			}
			skelCompare(t, []byte(stable(5)+row)) // and as a last row without newline
		}
		skelCompare(t, []byte("\n\n"+stable(3)+"\n\n\n"+stable(4)+"\n"))
		skelCompare(t, []byte(strings.TrimSuffix(stable(9), "\n")))
	})
}

func FuzzJSONSkeleton(f *testing.F) {
	f.Add(skelFile(1, 6, func(int, *rand.Rand) int { return 0 }))
	f.Add(skelFile(2, 6, func(r int, _ *rand.Rand) int { return r / 3 * 21 }))
	f.Add(skelFile(3, 12, func(r int, _ *rand.Rand) int { return r * 13 }))
	f.Add([]byte("{\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n{\"a\":1,\"b\":2e1,\"n\":{\"c\":+3,\"d\":4}}\n{\"a\":n}\n"))
	f.Add([]byte("{\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n {\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n{\"a\":1 ,\"b\":\"x\\\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		skelCompare(t, data)
	})
}

// BenchmarkJSONSkeleton bounds what the speculation may cost where it cannot
// win: over a file whose layout changes every row ("shuffled") the speculating
// scan must stay within 15 % of the general walker alone; "stable" is the case
// it is for.
func BenchmarkJSONSkeleton(b *testing.B) {
	files := map[string][]byte{
		"stable":   skelFile(1, 50000, func(int, *rand.Rand) int { return 0 }),
		"shuffled": skelFile(1, 50000, func(r int, _ *rand.Rand) int { return r * 13 }),
	}
	for _, name := range []string{"stable", "shuffled"} {
		for _, mode := range []string{"speculating", "walker"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				data := files[name]
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					s, err := NewJSONSequentialScan(data, skelTable, []int{0, 1, 3}, nil, false, 0)
					if err != nil {
						b.Fatal(err)
					}
					s.speculate = mode == "speculating"
					if _, err := exec.Collect(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

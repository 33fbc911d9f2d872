package exec

import (
	"fmt"
	"testing"

	"rawdb/internal/vector"
)

func memScanOver(t *testing.T, vals ...int64) *MemScan {
	t.Helper()
	v := vector.New(vector.Int64, len(vals))
	v.Int64s = vals
	ms, err := NewMemScan(vector.Schema{{Name: "a", Type: vector.Int64}}, []*vector.Vector{v}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestConcatStreamsInOrder(t *testing.T) {
	c, err := NewConcat([]Operator{
		memScanOver(t, 1, 2, 3, 4),
		memScanOver(t), // empty part in the middle
		memScanOver(t, 5),
		memScanOver(t, 6, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4, 5, 6, 7}
	if got := cols[0].Int64s; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// A second pass (re-Open) replays identically.
	cols, err = Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := cols[0].Int64s; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second pass got %v, want %v", got, want)
	}
}

func TestConcatSchemaMismatch(t *testing.T) {
	v := vector.New(vector.Float64, 1)
	v.Float64s = []float64{1}
	other, err := NewMemScan(vector.Schema{{Name: "a", Type: vector.Float64}}, []*vector.Vector{v}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConcat([]Operator{memScanOver(t, 1), other}); err == nil {
		t.Fatal("mismatched schemas accepted")
	}
	if _, err := NewConcat(nil); err == nil {
		t.Fatal("empty part list accepted")
	}
}

// TestConcatPassesSelection: selection-vector batches flow through Concat
// untouched (the contract dataset pipelines rely on when a partition scan
// absorbed predicates).
func TestConcatPassesSelection(t *testing.T) {
	v := vector.New(vector.Int64, 4)
	v.Int64s = []int64{1, 9, 2, 9}
	ms, err := NewMemScanPred(vector.Schema{{Name: "a", Type: vector.Int64}},
		flat(v), false, 8, []Pred{{Col: 0, Op: Lt, I64: 5}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConcat([]Operator{ms, memScanOver(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cols[0].Int64s); got != "[1 2 3]" {
		t.Fatalf("got %s, want [1 2 3]", got)
	}
}

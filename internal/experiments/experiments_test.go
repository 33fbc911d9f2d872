package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny keeps experiment smoke tests fast.
var tiny = Config{
	NarrowRows:  2_000,
	WideRows:    500,
	JoinRows:    2_000,
	HiggsEvents: 1_500,
	Repeats:     1,
}

func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(tiny)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if tbl.ID != r.ID {
				t.Fatalf("table id %q, runner id %q", tbl.ID, r.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s: row %v does not match header %v", r.ID, row, tbl.Header)
				}
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("unexpected experiment found")
	}
}

// TestFig5ShredsNeverSlowerAtLowSelectivity checks the paper's headline
// shape on a small dataset: at low selectivity, shredded columns beat full
// columns for the warm CSV query.
func TestFig5ShredsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-shape test")
	}
	cfg := tiny
	cfg.NarrowRows = 30_000
	tbl, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Header: selectivity, full_s, shreds_s, full_col7_s, shreds_col7_s, dbms_s.
	lowRow := tbl.Rows[1] // 10% selectivity
	full, _ := strconv.ParseFloat(lowRow[1], 64)
	shreds, _ := strconv.ParseFloat(lowRow[2], 64)
	if shreds > full*1.5 {
		t.Errorf("at 10%% selectivity shreds (%.4fs) should not be much slower than full (%.4fs)",
			shreds, full)
	}
}

// TestFig1aCompileDelay: Figure 1a's simulated compilation latency is added
// to the two JIT rows and to nothing else, and the title says it is
// simulated. An hour dwarfs any measured query at tiny scale, so the test is
// deterministic, and nothing sleeps.
func TestFig1aCompileDelay(t *testing.T) {
	cfg := tiny
	cfg.CompileDelay = time.Hour
	tbl, err := RunFig1a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Title, "simulated") {
		t.Fatalf("title %q does not label the delay as simulated", tbl.Title)
	}
	var jit []string
	for _, row := range tbl.Rows {
		s, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if charged := s >= time.Hour.Seconds(); charged {
			jit = append(jit, row[0])
		}
	}
	if want := []string{"JIT", "JIT Col.7"}; !slices.Equal(jit, want) {
		t.Fatalf("rows charged the delay: %v, want %v", jit, want)
	}
}

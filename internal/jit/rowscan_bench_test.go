package jit

import (
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	gen "rawdb/internal/workload"
)

// BenchmarkRowScan times two RowScans over 100k narrow rows: a CSV scan
// through a positional map (every tenth column tracked) whose pushed
// "col1 < t" keeps 40 % of the rows and then fetches columns 11 and 22 under
// that selection, and a binary scan of the same three columns with nothing
// pushed. Each op drains one scan.
func BenchmarkRowScan(b *testing.B) {
	const rows = 100_000
	ds, err := gen.Narrow(rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	tab := &catalog.Table{Name: "t", Format: catalog.CSV, Schema: ds.Schema}
	pm := posmap.New(posmap.Policy{EveryK: 10}, len(ds.Schema))
	seq, err := NewCSVSequentialScan(ds.CSV, tab, []int{0}, pm, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := exec.Collect(seq); err != nil {
		b.Fatal(err)
	}
	btab := *tab
	btab.Format = catalog.Binary
	rd, err := binfile.NewReader(ds.Bin)
	if err != nil {
		b.Fatal(err)
	}
	need := []int{0, 10, 21}
	push := Pushdown{Preds: []exec.Pred{{Col: 0, Op: exec.Lt, I64: gen.Threshold(0.4)}}}
	for _, c := range []struct {
		name string
		scan func() (*RowScan, error)
	}{
		{"csv-selected", func() (*RowScan, error) { return NewCSVMapScanPush(ds.CSV, tab, need, pm, false, 0, push) }},
		{"bin", func() (*RowScan, error) { return NewBinScanPush(rd, &btab, need, false, 0, Pushdown{}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				s, err := c.scan()
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Open(); err != nil {
					b.Fatal(err)
				}
				for bt, err := s.Next(); bt != nil || err != nil; bt, err = s.Next() {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

package exec

import (
	"fmt"

	"rawdb/internal/vector"
)

// Fetch appends, for every row id of a batch in order, one value to each of
// outs (one per appended column, emptied before each batch). The row ids
// ascend within a pass unless a join reordered them, and a new pass starts at
// every Open.
type Fetch func(rids []int64, outs []*vector.Vector) error

// LateScan appends columns, fetched by row id, to its child's batches: the
// one shell of every column-shred access path, a scan pushed up the plan
// whose child carries a hidden row-id column listing the rows that survived
// earlier filters or joins. Conversion and column-building costs are then paid
// for exactly the shred of each column a query needs. What differs between
// sources — raw bytes through a positional structure, fixed-width arithmetic,
// a format library, cached shreds completed from any of those — is only the
// fetch function.
type LateScan struct {
	child   Operator
	ridIdx  int
	schema  vector.Schema
	fetch   Fetch
	newCols []*vector.Vector
	scratch *vector.Batch
	out     vector.Batch
}

// NewLateScan appends cols, fetched by fetch, to child's batches. Column
// ridIdx of child must be the Int64 row-id column named ridName.
func NewLateScan(child Operator, ridIdx int, ridName string, cols vector.Schema, fetch Fetch) (*LateScan, error) {
	cs := child.Schema()
	if ridIdx < 0 || ridIdx >= len(cs) || cs[ridIdx].Type != vector.Int64 || cs[ridIdx].Name != ridName {
		return nil, fmt.Errorf("exec: late scan: column %d of child is not the row-id column", ridIdx)
	}
	s := &LateScan{child: child, ridIdx: ridIdx, fetch: fetch,
		schema:  append(append(make(vector.Schema, 0, len(cs)+len(cols)), cs...), cols...),
		newCols: make([]*vector.Vector, len(cols))}
	for i, c := range cols {
		s.newCols[i] = vector.New(c.Type, vector.DefaultBatchSize)
	}
	return s, nil
}

// Schema implements Operator.
func (s *LateScan) Schema() vector.Schema { return s.schema }

// Open implements Operator.
func (s *LateScan) Open() error { return s.child.Open() }

// Next implements Operator.
func (s *LateScan) Next() (*vector.Batch, error) {
	b, err := s.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	// Fetched columns align physically with the child's rows; densify
	// selection-vector batches so only surviving rows pay the fetch.
	b = b.Compact(&s.scratch)
	for _, c := range s.newCols {
		c.Reset()
	}
	if err := s.fetch(b.Cols[s.ridIdx].Int64s, s.newCols); err != nil {
		return nil, err
	}
	s.out.Cols = append(append(s.out.Cols[:0], b.Cols...), s.newCols...)
	return &s.out, nil
}

// Close implements Operator.
func (s *LateScan) Close() error { return s.child.Close() }

var _ Operator = (*LateScan)(nil)

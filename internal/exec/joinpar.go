package exec

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"rawdb/internal/vector"
)

// SharedBuild materialises a join build side once and indexes it in one
// flat, bucket-chained hash table: head[b] holds 1 + the first build row of
// bucket b (0 = empty), next[r] 1 + the row after r in its chain. Rows are
// inserted in reverse, so every chain lists its rows in ascending stream
// order and probes emit matches in build order. Probes compare against the
// collected key column itself, and the build makes the same few allocations
// however many distinct keys there are.
//
// Every join runs through it: the serial plan is one HashProbe over the
// build, a cut plan one HashProbe per probe morsel. The first
// Open triggers the build and the rest block on the same sync.Once. A
// SharedBuild belongs to a single plan execution and cannot be re-opened.
type SharedBuild struct {
	src Operator
	key int

	once  sync.Once
	err   error
	cols  []*vector.Vector
	keys  []int64 // cols[key].Int64s
	head  []int32
	next  []int32
	seed  int64 // bucket of k = khash(k^seed) >> shift
	shift uint
}

// maxBuildRows bounds a build side: chain entries hold 1 + a row in int32.
const maxBuildRows = math.MaxInt32

// NewSharedBuild wraps src as a shared build side keyed on src column key.
// The insert is serial (~16 ns/row); parallelism is accepted and unused
// until a workload builds large enough for a split insert to pay.
func NewSharedBuild(src Operator, key, parallelism int) (*SharedBuild, error) {
	ss := src.Schema()
	if key < 0 || key >= len(ss) {
		return nil, fmt.Errorf("exec: sharedbuild: key index %d out of range", key)
	}
	if ss[key].Type != vector.Int64 {
		return nil, fmt.Errorf("exec: sharedbuild: join key must be %s", vector.Int64)
	}
	// A per-build seed keeps crafted keys from piling onto one chain.
	return &SharedBuild{src: src, key: key, seed: rand.Int64()}, nil
}

// Schema describes the buffered build columns.
func (b *SharedBuild) Schema() vector.Schema { return b.src.Schema() }

// ensure runs the build exactly once; concurrent callers block until it
// completes and observe the same error.
func (b *SharedBuild) ensure() error {
	b.once.Do(func() { b.err = b.build() })
	return b.err
}

// khash scatters int64 join keys (Fibonacci hashing); buckets take its top
// bits.
func khash(k int64) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15
}

// checkBuildRows rejects build sides whose row indexes would not fit a
// chain entry.
func checkBuildRows(n int) error {
	if n > maxBuildRows {
		return fmt.Errorf("exec: sharedbuild: %d build rows exceed the limit of %d", n, maxBuildRows)
	}
	return nil
}

func (b *SharedBuild) build() error {
	cols, err := Collect(b.src)
	if err != nil {
		return err
	}
	keys := cols[b.key].Int64s
	n := len(keys)
	if err := checkBuildRows(n); err != nil {
		return err
	}
	size, shift := 1, uint(64)
	for size < 2*n {
		size <<= 1
		shift--
	}
	head, next, seed := make([]int32, size), make([]int32, n), b.seed
	for i := n - 1; i >= 0; i-- {
		h := khash(keys[i]^seed) >> shift
		next[i] = head[h]
		head[h] = int32(i + 1)
	}
	b.cols, b.keys, b.head, b.next, b.shift = cols, keys, head, next, shift
	return nil
}

// HashProbe joins one probe stream against a SharedBuild. It walks each
// probe batch's selected rows and their chains into two reused row lists
// until the output batch is full, then fills every output column with one
// Gather. A chain cut off by a full batch resumes on the next call, so
// output batches are full except the last, rows follow probe order and
// matches build stream order: streaming probe morsels in file order
// reproduces the serial join byte for byte.
type HashProbe struct {
	probe     Operator
	build     *SharedBuild
	key       int
	schema    vector.Schema
	batchSize int

	out          *vector.Batch
	prows, brows []int32 // pending output pairs: probe row, build row

	pending *vector.Batch // current probe batch
	keys    []int64       // its key column
	sel     []int32       // its selection, nil when dense
	n, pos  int           // selected rows, next one to probe
	cur     int32         // probe row whose chain is being walked
	link    int32         // 1 + next chain row to compare, 0 = none
}

// NewHashProbe joins probe ⋈ build on probe.Schema()[key] = build key.
func NewHashProbe(probe Operator, build *SharedBuild, key int) (*HashProbe, error) {
	ps := probe.Schema()
	if key < 0 || key >= len(ps) {
		return nil, fmt.Errorf("exec: hashprobe: key index %d out of range", key)
	}
	if ps[key].Type != vector.Int64 {
		return nil, fmt.Errorf("exec: hashprobe: join key must be %s", vector.Int64)
	}
	schema := make(vector.Schema, 0, len(ps)+len(build.Schema()))
	schema = append(schema, ps...)
	schema = append(schema, build.Schema()...)
	return &HashProbe{
		probe: probe, build: build, key: key,
		schema:    schema,
		batchSize: vector.DefaultBatchSize,
	}, nil
}

// Schema implements Operator.
func (j *HashProbe) Schema() vector.Schema { return j.schema }

// Open implements Operator. The first probe to open triggers the shared
// build (a cut plan's own exchange runs the build morsels in parallel); the
// others block until the table is ready.
func (j *HashProbe) Open() error {
	if err := j.build.ensure(); err != nil {
		return err
	}
	j.pending, j.n, j.pos, j.link = nil, 0, 0, 0
	return j.probe.Open()
}

// Next implements Operator.
func (j *HashProbe) Next() (*vector.Batch, error) {
	if j.out == nil {
		j.out = vector.NewBatch(j.schema.Types(), j.batchSize)
		j.prows = make([]int32, 0, j.batchSize)
		j.brows = make([]int32, 0, j.batchSize)
	}
	j.out.Reset()
	j.brows = j.brows[:0]
	for j.walk(); len(j.brows) < j.batchSize; j.walk() {
		// The probe batch is used up: copy its rows out before the next
		// batch replaces it.
		j.gatherProbe()
		b, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if len(j.brows) == 0 {
				return nil, nil
			}
			break
		}
		j.pending, j.keys, j.sel, j.pos = b, b.Cols[j.key].Int64s, b.Sel, 0
		j.n = len(b.Sel)
		if b.Sel == nil {
			j.n = b.Len()
		}
	}
	j.gatherProbe()
	np := len(j.schema) - len(j.build.cols)
	for c, col := range j.build.cols {
		j.out.Cols[np+c].Gather(col, j.brows)
	}
	return j.out, nil
}

// walk appends (probe row, build row) pairs until the output batch is full
// or the pending probe rows are used up, resuming an unfinished chain.
func (j *HashProbe) walk() {
	b := j.build
	bkeys, head, next, seed, shift := b.keys, b.head, b.next, b.seed, b.shift
	keys, sel, n, i := j.keys, j.sel, j.n, j.pos
	prows, brows := j.prows, j.brows
	p, link := j.cur, j.link
	for len(brows) < j.batchSize {
		if link == 0 {
			if i == n {
				break
			}
			p = int32(i)
			if sel != nil {
				p = sel[i]
			}
			i++
			link = head[khash(keys[p]^seed)>>shift]
			continue
		}
		r := link - 1
		link = next[r]
		if bkeys[r] == keys[p] {
			prows = append(prows, p)
			brows = append(brows, r)
		}
	}
	j.pos, j.prows, j.brows, j.cur, j.link = i, prows, brows, p, link
}

// gatherProbe copies the pending probe rows into the output batch.
func (j *HashProbe) gatherProbe() {
	if len(j.prows) == 0 {
		return
	}
	for c, col := range j.pending.Cols {
		j.out.Cols[c].Gather(col, j.prows)
	}
	j.prows = j.prows[:0]
}

// Close implements Operator. The shared build belongs to the plan, not any
// single probe; its buffers are dropped when the plan is garbage collected.
func (j *HashProbe) Close() error { return j.probe.Close() }

var _ Operator = (*HashProbe)(nil)

package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"rawdb/internal/faults"
	"rawdb/internal/vector"
)

// PanicError is a panic recovered inside an execution pipeline, converted to
// an ordinary query error so one poisoned morsel (a bug in a generated access
// path, corrupt in-memory state) fails its query cleanly instead of killing
// the process. The engine counts these separately from plain query errors.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error. The stack is kept out of the message (it is for
// logs, not clients); callers reach it via errors.As.
func (p *PanicError) Error() string {
	return fmt.Sprintf("exec: recovered panic: %v", p.Value)
}

// Unwrap returns the panic value when it is an error (a runtime error, such
// as a memory fault).
func (p *PanicError) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// runPart drains one morsel pipeline with panic containment: a panicking
// operator poisons only its own morsel, surfacing as a PanicError the
// exchange propagates like any worker error (no partial structure is
// published — the merge hooks never run on a failed query). A memory fault
// is a panic too, not a crash: a read past the end of a raw file truncated
// under its mapping, which the engine tells by the fault's address.
func runPart(ctx context.Context, op Operator) (cols []*vector.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	if err := faults.Hit(faults.SiteExecMorsel); err != nil {
		return nil, err
	}
	return CollectCtx(ctx, op)
}

// Parallel is the morsel-driven exchange operator: it executes a set of
// cloned pipelines — one per morsel of a raw file, typically scan → filter
// (→ partial aggregate) — on a bounded worker pool, then re-emits their
// buffered outputs strictly in morsel order. Because morsels partition the
// file in order and every part's output is replayed in sequence, the
// concatenated stream is byte-identical to what one serial pipeline over the
// whole file would produce; partial-aggregate merging happens in the
// operators planned above the exchange.
type Parallel struct {
	schema    vector.Schema
	parts     []Operator
	workers   int
	batchSize int

	// onDone runs after every part drained successfully (still inside Open),
	// the merge-on-completion hook parallel plans use to publish per-morsel
	// cache fragments (positional maps, structural indexes, column shreds).
	onDone func() error

	// ctx, when cancellable, is checked by every worker between morsels and
	// between batches within a morsel, so a cancelled query stops the whole
	// pool within one batch of work. Defaults to context.Background().
	ctx context.Context

	results [][]*vector.Vector
	part    int
	pos     int
	out     *vector.Batch
}

// NewParallel validates that every part produces the same schema. workers
// bounds the number of goroutines draining parts concurrently; batchSize <= 0
// selects vector.DefaultBatchSize for the re-emitted stream. onDone may be
// nil.
func NewParallel(parts []Operator, workers, batchSize int, onDone func() error) (*Parallel, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("exec: parallel needs at least one pipeline")
	}
	if workers < 1 {
		workers = 1
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema := parts[0].Schema()
	for i, p := range parts[1:] {
		ps := p.Schema()
		if len(ps) != len(schema) {
			return nil, fmt.Errorf("exec: parallel part %d has %d columns, part 0 has %d",
				i+1, len(ps), len(schema))
		}
		for c := range ps {
			if ps[c].Type != schema[c].Type || ps[c].Name != schema[c].Name {
				return nil, fmt.Errorf("exec: parallel part %d column %d (%s %s) differs from part 0 (%s %s)",
					i+1, c, ps[c].Name, ps[c].Type, schema[c].Name, schema[c].Type)
			}
		}
	}
	return &Parallel{
		schema: schema, parts: parts, workers: workers,
		batchSize: batchSize, onDone: onDone, ctx: context.Background(),
	}, nil
}

// SetContext attaches a cancellation context to the exchange. Must be called
// before Open.
func (p *Parallel) SetContext(ctx context.Context) {
	if ctx != nil {
		p.ctx = ctx
	}
}

// Schema implements Operator.
func (p *Parallel) Schema() vector.Schema { return p.schema }

// Open implements Operator. It runs every part to completion on the worker
// pool; by the time Open returns, all morsel work (and the merge hook) is
// done and Next only replays buffered vectors.
func (p *Parallel) Open() error {
	p.part, p.pos = 0, 0
	p.results = make([][]*vector.Vector, len(p.parts))

	workers := p.workers
	if workers > len(p.parts) {
		workers = len(p.parts)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue // drain remaining indexes without running them
				}
				cols, err := runPart(p.ctx, p.parts[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				p.results[i] = cols
			}
		}()
	}
	for i := range p.parts {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if p.onDone != nil {
		return p.onDone()
	}
	return nil
}

// Next implements Operator: it streams the buffered per-part outputs in part
// order. Emitted batches are views over the buffers (no copying).
func (p *Parallel) Next() (*vector.Batch, error) {
	for p.part < len(p.results) {
		cols := p.results[p.part]
		n := 0
		if len(cols) > 0 {
			n = cols[0].Len()
		}
		if p.pos >= n {
			p.part++
			p.pos = 0
			continue
		}
		end := p.pos + p.batchSize
		if end > n {
			end = n
		}
		if p.out == nil {
			p.out = &vector.Batch{Cols: make([]*vector.Vector, len(cols))}
		}
		for i, c := range cols {
			p.out.Cols[i] = c.Slice(p.pos, end)
		}
		p.pos = end
		return p.out, nil
	}
	return nil, nil
}

// Close implements Operator. Parts are opened and closed inside Open's
// workers; Close only drops the buffered results.
func (p *Parallel) Close() error {
	p.results = nil
	return nil
}

var _ Operator = (*Parallel)(nil)

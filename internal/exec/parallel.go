package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

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

// queueDepth is how many full batches a part may run ahead of the reader:
// a part's worker blocks once its queue holds that many. Four let a part
// keep working while the reader consumes a batch or two, and bound what a
// part holds to four batches however large its output.
const queueDepth = 4

// Parallel is the morsel-driven exchange operator: it executes a set of
// cloned pipelines — one per morsel of a raw file, typically scan → filter
// (→ partial aggregate) — on a bounded worker pool and streams their outputs
// strictly in morsel order. Workers take parts in order and copy each part's
// rows into full batches on a bounded queue of its own; Next reads the queues
// in part order. Because morsels partition the file in order, the stream is
// byte-identical to what one serial pipeline over the whole file would
// produce, and so is its error: a failed part ends the stream after every
// lower part's rows, where the serial plan would have met it.
// Partial-aggregate merging happens in the operators planned above the
// exchange.
type Parallel struct {
	schema    vector.Schema
	parts     []Operator
	workers   int
	batchSize int

	// onDone runs once every part has drained successfully, before Next
	// reports the end of the stream: the merge-on-completion hook parallel
	// plans use to publish per-morsel cache fragments.
	onDone func() error

	// ctx is the query's context. Defaults to context.Background().
	ctx context.Context

	// One run, from Open to Close: part i's batches go on queues[i], closed
	// once errs[i] is set; next is the next part to take, part the one Next
	// reads. run, ctx's child that Close cancels, is checked before each
	// batch of every part, so a cancelled query or a closed exchange stops
	// the whole pool within one batch of work.
	queues []chan *vector.Batch
	errs   []error
	next   atomic.Int64
	part   int
	run    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewParallel validates that every part produces the same schema. workers
// bounds the number of goroutines draining parts concurrently; batchSize <= 0
// selects vector.DefaultBatchSize for the streamed batches. onDone may be
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

// Open implements Operator. It starts the workers; each takes the lowest part
// not yet taken, so a worker blocked on a full queue never holds up a part
// the reader still waits for.
func (p *Parallel) Open() error {
	n := len(p.parts)
	p.queues, p.errs = make([]chan *vector.Batch, n), make([]error, n)
	for i := range p.queues {
		p.queues[i] = make(chan *vector.Batch, queueDepth)
	}
	p.next.Store(0)
	p.part = 0
	p.run, p.cancel = context.WithCancel(p.ctx)
	workers := min(p.workers, n)
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	return nil
}

// work runs parts until none is left.
func (p *Parallel) work() {
	defer p.wg.Done()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i := int(p.next.Add(1) - 1); i < len(p.parts); i = int(p.next.Add(1) - 1) {
		p.errs[i] = p.runPart(i)
		close(p.queues[i])
	}
}

// runPart drains part i with panic containment: a panicking operator poisons
// only its own morsel, surfacing as a PanicError the exchange propagates like
// any part's error (no partial structure is published — the merge hooks
// never run on a failed query). A memory fault is a panic too, not a crash: a
// read past the end of a raw file truncated under its mapping, which the
// engine tells by the fault's address. The part's rows are copied (the
// operators beneath reuse their batches) into full batches and queued.
func (p *Parallel) runPart(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctxErr(p.run); err != nil {
		return err
	}
	if err := faults.Hit(faults.SiteExecMorsel); err != nil {
		return err
	}
	op := p.parts[i]
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	var out *vector.Batch
	types := p.schema.Types()
	streams := false // a full batch went out, so more come: size the next ones whole
	for {
		if err := ctxErr(p.run); err != nil {
			return err
		}
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for lo, n := 0, BatchRows(b); lo < n; {
			if out == nil { // sized for what comes, so a small part's output stays small
				size := p.batchSize
				if !streams {
					size = min(size, n-lo)
				}
				out = vector.NewBatch(types, size)
			}
			hi := min(n, lo+p.batchSize-out.Len())
			for c, v := range b.Cols {
				if b.Sel != nil {
					out.Cols[c].Gather(v, b.Sel[lo:hi])
				} else {
					out.Cols[c].AppendVector(v.Slice(lo, hi))
				}
			}
			if lo = hi; out.Len() == p.batchSize {
				if err := p.send(i, out); err != nil {
					return err
				}
				out, streams = nil, true
			}
		}
	}
	if out != nil {
		return p.send(i, out)
	}
	return nil
}

// send queues b on part i's queue, unless the run ends first.
func (p *Parallel) send(i int, b *vector.Batch) error {
	select {
	case p.queues[i] <- b:
		return nil
	case <-p.run.Done():
		return ctxErr(p.run)
	}
}

// Next implements Operator: it returns the parts' batches in part order, and
// the error of the first part that failed.
func (p *Parallel) Next() (*vector.Batch, error) {
	for p.part < len(p.queues) {
		if b, ok := <-p.queues[p.part]; ok {
			return b, nil
		}
		if err := p.errs[p.part]; err != nil {
			return nil, err
		}
		if p.part++; p.part == len(p.queues) && p.onDone != nil {
			return nil, p.onDone()
		}
	}
	return nil, nil
}

// Close implements Operator. It halts the parts still running and returns
// once every worker has; parts are opened and closed by their workers.
func (p *Parallel) Close() error {
	if p.cancel != nil {
		p.cancel()
		p.wg.Wait()
	}
	p.queues, p.errs, p.run, p.cancel = nil, nil, nil, nil
	return nil
}

var _ Operator = (*Parallel)(nil)

package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rawdb/internal/vector"
)

// countedOp counts a part's calls atomically (exchange workers make them)
// and asks fail before each batch; its error ends the part.
type countedOp struct {
	Operator
	opens, nexts, closes atomic.Int64
	fail                 func(n int64) error
}

func (o *countedOp) Open() error {
	o.opens.Add(1)
	return o.Operator.Open()
}

func (o *countedOp) Next() (*vector.Batch, error) {
	n := o.nexts.Add(1)
	if o.fail != nil {
		if err := o.fail(n); err != nil {
			return nil, err
		}
	}
	return o.Operator.Next()
}

func (o *countedOp) Close() error {
	o.closes.Add(1)
	return o.Operator.Close()
}

// exchangeParts returns nparts scans of rows rows each, in batches of batch:
// part i holds i*rows .. (i+1)*rows-1, so the exchange's stream is 0, 1, 2, ...
func exchangeParts(t *testing.T, nparts, rows, batch int) ([]Operator, []*countedOp) {
	t.Helper()
	ops, counted := make([]Operator, nparts), make([]*countedOp, nparts)
	for i := range ops {
		vals := make([]int64, rows)
		for r := range vals {
			vals[r] = int64(i*rows + r)
		}
		counted[i] = &countedOp{Operator: memScan(t, vector.Schema{{Name: "a", Type: vector.Int64}},
			[]*vector.Vector{intVec(vals...)}, batch)}
		ops[i] = counted[i]
	}
	return ops, counted
}

// readStream pulls batches until the end, an error or stop (after each
// batch), checking that values continue the sequence from 0 in batches of
// batchSize rows, short only at a part's end (every rows rows).
func readStream(t *testing.T, par *Parallel, batchSize, rows int, stop func(got int) bool) (int, error) {
	t.Helper()
	got := 0
	for {
		b, err := par.Next()
		if err != nil || b == nil {
			return got, err
		}
		if n := b.Len(); n != batchSize && (got+n)%rows != 0 {
			t.Fatalf("a %d-row batch at row %d: want %d rows until a part ends", n, got, batchSize)
		}
		for _, v := range b.Cols[0].Int64s {
			if v != int64(got) {
				t.Fatalf("row %d is %d", got, v)
			}
			got++
		}
		if stop != nil && stop(got) {
			return got, nil
		}
	}
}

// settled fails t unless the goroutine count falls back to base: Close
// returns after every worker has, but a returning goroutine is counted until
// it exits.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), base)
		}
	}
}

// TestExchangeSlowConsumer: with fewer workers than parts and more batches
// per part than the queue holds, a slow reader gets every row in order, in
// full batches re-cut from the parts' 5-row ones; a part ahead of the reader
// stops pulling once its queue is full; onDone runs once, after the last
// part drained.
func TestExchangeSlowConsumer(t *testing.T) {
	const nparts, rows, batchSize = 5, 3 * queueDepth * 8, 8
	base := runtime.NumGoroutine()
	parts, counted := exchangeParts(t, nparts, rows, 5)
	read, dones, doneAt := 0, 0, -1
	par, err := NewParallel(parts, 2, batchSize, func() error { dones, doneAt = dones+1, read; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Open(); err != nil {
		t.Fatal(err)
	}
	got, err := readStream(t, par, batchSize, rows, func(got int) bool {
		if read = got; got == batchSize { // the reader is in part 0: part 1 can run ahead by its queue and one batch
			time.Sleep(20 * time.Millisecond)
			if n, most := counted[1].nexts.Load(), int64((queueDepth+1)*batchSize/5+2); n > most {
				t.Errorf("part 1 pulled %d batches while the reader was in part 0, want at most %d", n, most)
			}
		}
		time.Sleep(100 * time.Microsecond)
		return false
	})
	if err != nil || got != nparts*rows {
		t.Fatalf("read %d rows, err %v: want %d rows", got, err, nparts*rows)
	}
	if dones != 1 || doneAt != got {
		t.Fatalf("onDone ran %d times, at row %d: want once, at the end", dones, doneAt)
	}
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counted {
		if c.opens.Load() != 1 || c.closes.Load() != 1 {
			t.Fatalf("part %d opened %d, closed %d times", i, c.opens.Load(), c.closes.Load())
		}
	}
	settled(t, base)
}

// TestExchangeCloseBeforeDrained: Close in the middle of the stream halts the
// workers blocked on full queues and returns after they have; every part
// that was opened is closed.
func TestExchangeCloseBeforeDrained(t *testing.T) {
	base := runtime.NumGoroutine()
	parts, counted := exchangeParts(t, 6, 200, 10)
	par, err := NewParallel(parts, 3, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Open(); err != nil {
		t.Fatal(err)
	}
	if got, err := readStream(t, par, 10, 200, func(got int) bool { return got == 20 }); err != nil || got != 20 {
		t.Fatalf("read %d rows, err %v", got, err)
	}
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	settled(t, base)
	for i, c := range counted {
		if c.opens.Load() != c.closes.Load() {
			t.Fatalf("part %d opened %d, closed %d times", i, c.opens.Load(), c.closes.Load())
		}
	}
}

// TestExchangeLaterPartError: a part that fails while an earlier one is
// still being read ends the stream where the serial plan would: after every
// row of the parts before it, with its error.
func TestExchangeLaterPartError(t *testing.T) {
	base := runtime.NumGoroutine()
	parts, counted := exchangeParts(t, 4, 100, 10)
	boom := errors.New("part 2 failed")
	counted[2].fail = func(int64) error { return boom }
	par, err := NewParallel(parts, 4, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(par) // its Close waits for the workers
	if !errors.Is(err, boom) || got != nil {
		t.Fatalf("err %v: want part 2's", err)
	}
	settled(t, base)

	parts, counted = exchangeParts(t, 4, 100, 10)
	counted[2].fail = func(int64) error { return boom }
	if par, err = NewParallel(parts, 4, 10, nil); err != nil {
		t.Fatal(err)
	}
	if err := par.Open(); err != nil {
		t.Fatal(err)
	}
	if n, err := readStream(t, par, 10, 100, nil); n != 200 || !errors.Is(err, boom) {
		t.Fatalf("read %d rows, err %v: want parts 0 and 1's 200 rows, then part 2's error", n, err)
	}
	par.Close()
	settled(t, base)
}

// TestExchangeLowestPartErrorWins: when the first and the last part both
// fail, the stream reports the first part's error however much sooner the
// last one failed — the error the serial plan meets.
func TestExchangeLowestPartErrorWins(t *testing.T) {
	base := runtime.NumGoroutine()
	for run := range 20 {
		parts, counted := exchangeParts(t, 6, 400, 10)
		first, last := errors.New("part 0 failed"), errors.New("part 5 failed")
		counted[0].fail = func(n int64) error {
			if n == 30 {
				return first
			}
			return nil
		}
		counted[5].fail = func(int64) error { return last }
		par, err := NewParallel(parts, 3, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := par.Open(); err != nil {
			t.Fatal(err)
		}
		if n, err := readStream(t, par, 10, 400, nil); n != 290 || err != first {
			t.Fatalf("run %d: read %d rows, err %v: want 290 rows, then %v", run, n, err, first)
		}
		par.Close()
	}
	settled(t, base)
}

// TestExchangeCancelMidStream: a context cancelled while the reader is in
// the stream stops every part within a batch; the stream ends with the
// cancellation after a prefix of the rows.
func TestExchangeCancelMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parts, _ := exchangeParts(t, 8, 1000, 10)
	par, err := NewParallel(parts, 2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	par.SetContext(ctx)
	if err := par.Open(); err != nil {
		t.Fatal(err)
	}
	n, err := readStream(t, par, 10, 1000, func(got int) bool {
		if got == 30 {
			cancel()
		}
		return false
	})
	if !errors.Is(err, context.Canceled) || n < 30 || n == 8000 {
		t.Fatalf("read %d rows, err %v: want context.Canceled after row 30, before the end", n, err)
	}
	par.Close()
	settled(t, base)
}

// TestExchangePanickingPart: a part that panics mid-stream fails the stream
// with a PanicError after the rows before it; the pool still shuts down.
func TestExchangePanickingPart(t *testing.T) {
	base := runtime.NumGoroutine()
	parts, counted := exchangeParts(t, 4, 100, 10)
	counted[1].fail = func(n int64) error {
		if n == 3 {
			panic(fmt.Sprintf("batch %d", n))
		}
		return nil
	}
	par, err := NewParallel(parts, 2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Open(); err != nil {
		t.Fatal(err)
	}
	n, err := readStream(t, par, 10, 100, nil)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "batch 3" || n != 120 {
		t.Fatalf("read %d rows, err %v: want 120 rows, then the panic", n, err)
	}
	par.Close()
	settled(t, base)
}

// batchSink makes a batch escape, as the exchange's output batches do.
var batchSink *vector.Batch

// selOp returns its batch, batches times.
type selOp struct {
	b       *vector.Batch
	batches int
	left    int
}

func (o *selOp) Schema() vector.Schema { return vector.Schema{{Name: "a", Type: vector.Int64}} }
func (o *selOp) Open() error           { o.left = o.batches; return nil }
func (o *selOp) Close() error          { return nil }
func (o *selOp) Next() (*vector.Batch, error) {
	if o.left == 0 {
		return nil, nil
	}
	o.left--
	return o.b, nil
}

// TestExchangeStreamedSelectionsAllocs: a part that streams many small
// selections (a bypassing partial aggregate passes ~400 rows of each batch)
// allocates each full output batch once at its size, not by growing one
// sized for the first selection.
func TestExchangeStreamedSelectionsAllocs(t *testing.T) {
	const bs = 1024
	b := vector.NewBatch([]vector.Type{vector.Int64}, bs) // 410 even rows selected
	for r := range bs {
		b.Cols[0].AppendInt64(int64(r))
		if r%5 != 0 && r%2 == 0 {
			b.Sel = append(b.Sel, int32(r))
		}
	}
	drain := func(batches int) float64 {
		return testing.AllocsPerRun(10, func() {
			par, err := NewParallel([]Operator{&selOp{b: b, batches: batches}}, 1, bs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := par.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				out, err := par.Next()
				if err != nil {
					t.Fatal(err)
				}
				if out == nil {
					break
				}
			}
			par.Close()
		})
	}
	perBatch := testing.AllocsPerRun(10, func() { batchSink = vector.NewBatch([]vector.Type{vector.Int64}, bs) })
	const few, many = 64, 320
	full := float64((many - few) * len(b.Sel) / bs)
	if got := (drain(many) - drain(few)) / full; got > perBatch+0.5 {
		t.Fatalf("%.2f allocations per streamed output batch, want at most %.0f (one batch)", got, perBatch)
	}
}

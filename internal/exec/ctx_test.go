package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rawdb/internal/vector"
)

// hookedOp counts Next calls and runs a callback after each batch, so tests
// can cancel a context mid-stream and measure how quickly collection stops.
type hookedOp struct {
	Operator
	nexts     int
	afterNext func(n int)
}

func (h *hookedOp) Next() (*vector.Batch, error) {
	b, err := h.Operator.Next()
	h.nexts++
	if h.afterNext != nil {
		h.afterNext(h.nexts)
	}
	return b, err
}

func manyBatchScan(t *testing.T, rows, batch int) *MemScan {
	t.Helper()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	return memScan(t, vector.Schema{{Name: "a", Type: vector.Int64}},
		[]*vector.Vector{intVec(vals...)}, batch)
}

func TestCollectCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &hookedOp{Operator: manyBatchScan(t, 100, 10)}
	_, err := CollectCtx(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "query abandoned") {
		t.Fatalf("err = %v, want a query-abandoned wrap", err)
	}
	if src.nexts != 0 {
		t.Fatalf("cancelled-before-open collection still pulled %d batches", src.nexts)
	}
}

func TestCollectCtxStopsWithinOneBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &hookedOp{Operator: manyBatchScan(t, 1000, 10)} // 100 batches
	src.afterNext = func(n int) {
		if n == 3 {
			cancel()
		}
	}
	_, err := CollectCtx(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The context check runs between batches: after the cancel lands during
	// batch 3, no further batch may be pulled.
	if src.nexts > 3 {
		t.Fatalf("collection pulled %d batches; want it to stop within one batch of the cancel", src.nexts)
	}
}

func TestCollectCtxBackgroundIsPlainCollect(t *testing.T) {
	src := &hookedOp{Operator: manyBatchScan(t, 100, 10)}
	cols, err := CollectCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if cols[0].Len() != 100 {
		t.Fatalf("collected %d rows, want 100", cols[0].Len())
	}
}

func TestWithContextStopsBaseScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &hookedOp{Operator: manyBatchScan(t, 1000, 10)}
	src.afterNext = func(n int) {
		if n == 2 {
			cancel()
		}
	}
	// Collect without a context: the wrapper alone must stop the stream, the
	// shape cancellation takes inside exchange workers.
	_, err := Collect(WithContext(src, ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.nexts > 2 {
		t.Fatalf("base scan pulled %d batches after cancel", src.nexts)
	}
}

func TestWithContextNoOpForBackground(t *testing.T) {
	src := manyBatchScan(t, 10, 10)
	if got := WithContext(src, context.Background()); got != Operator(src) {
		t.Fatal("WithContext(op, Background) should return op unchanged")
	}
	if got := WithContext(src, nil); got != Operator(src) {
		t.Fatal("WithContext(op, nil) should return op unchanged")
	}
}

func TestParallelSetContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parts := make([]Operator, 4)
	var hooks []*hookedOp
	for i := range parts {
		h := &hookedOp{Operator: manyBatchScan(t, 1000, 10)}
		hooks = append(hooks, h)
		parts[i] = h
	}
	cancel() // cancelled before Open: every worker must give up immediately
	par, err := NewParallel(parts, 2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	par.SetContext(ctx)
	_, err = Collect(par)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, h := range hooks {
		if h.nexts != 0 {
			t.Fatalf("worker %d pulled %d batches under a cancelled context", i, h.nexts)
		}
	}
}

// faultValue stands in for the runtime error a memory fault panics with.
type faultValue uintptr

func (f faultValue) Error() string { return "unexpected fault address" }
func (f faultValue) Addr() uintptr { return uintptr(f) }

// TestParallelWorkerFaultUnwraps: a worker's panic with an error value is
// contained as a PanicError that unwraps to that value, so the fault address
// of a read past a truncated mapping reaches the engine through errors.As.
func TestParallelWorkerFaultUnwraps(t *testing.T) {
	parts := make([]Operator, 3)
	for i := range parts {
		parts[i] = manyBatchScan(t, 100, 10)
	}
	parts[1] = &hookedOp{Operator: manyBatchScan(t, 100, 10), afterNext: func(int) { panic(faultValue(0x1234)) }}
	par, err := NewParallel(parts, 2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(par)
	var pe *PanicError
	var f interface{ Addr() uintptr }
	if !errors.As(err, &pe) || !errors.As(err, &f) || f.Addr() != 0x1234 {
		t.Fatalf("err = %v: want a PanicError unwrapping to the fault at 0x1234", err)
	}
}

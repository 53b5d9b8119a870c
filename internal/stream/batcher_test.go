package stream

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoProc is the trivial processor: out[i] = batch[i], no commit, no
// error. commits counts clean flushes.
func echoProc(commits *atomic.Int64) func([]int) ([]int, func(), error) {
	return func(batch []int) ([]int, func(), error) {
		outs := append([]int(nil), batch...)
		return outs, func() { commits.Add(1) }, nil
	}
}

func collect(t *testing.T, chans []<-chan Result[int]) []Result[int] {
	t.Helper()
	out := make([]Result[int], len(chans))
	for i, c := range chans {
		select {
		case out[i] = <-c:
		case <-time.After(10 * time.Second):
			t.Fatalf("result %d never delivered", i)
		}
	}
	return out
}

// TestSizeFlush: exactly batchSize records per flush when producers keep
// the queue fed; every record gets its own result back.
func TestSizeFlush(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 8, MaxWait: -1}, echoProc(&commits))
	var chans []<-chan Result[int]
	for i := 0; i < 64; i++ {
		chans = append(chans, b.Submit(i))
	}
	res := collect(t, chans)
	for i, r := range res {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := b.Flushes(); got != 8 {
		t.Fatalf("expected 8 size-triggered flushes, got %d", got)
	}
	if commits.Load() != 8 {
		t.Fatalf("expected 8 commits, got %d", commits.Load())
	}
}

// TestDeadlineFlush: a partial batch flushes MaxWait after its first
// record, not at Close.
func TestDeadlineFlush(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 1 << 20, MaxWait: 20 * time.Millisecond}, echoProc(&commits))
	defer b.Close()
	c := b.Submit(7)
	select {
	case r := <-c:
		if r.Err != nil || r.Out != 7 {
			t.Fatalf("got (%d, %v)", r.Out, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline flush never fired")
	}
}

// TestCloseDrains: records enqueued before Close are all flushed and
// delivered; records submitted after Close get ErrStreamClosed.
func TestCloseDrains(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 16, MaxWait: -1, QueueDepth: 256}, echoProc(&commits))
	var chans []<-chan Result[int]
	for i := 0; i < 100; i++ { // 6 full batches + a partial of 4
		chans = append(chans, b.Submit(i))
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, r := range collect(t, chans) {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if r := <-b.Submit(5); !errors.Is(r.Err, ErrStreamClosed) {
		t.Fatalf("post-Close Submit: got %v, want ErrStreamClosed", r.Err)
	}
	// Close is idempotent and still reports the stream's health.
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShed: with Shed set, a full queue fails fast with ErrQueueFull and
// the record never reaches a flush.
func TestShed(t *testing.T) {
	block := make(chan struct{})
	var processed atomic.Int64
	b := New(Config{BatchSize: 1, MaxWait: -1, QueueDepth: 1, Shed: true},
		func(batch []int) ([]int, func(), error) {
			<-block
			processed.Add(int64(len(batch)))
			return append([]int(nil), batch...), nil, nil
		})
	// First record is picked up by the flusher and parks on `block`;
	// second fills the 1-deep queue; the rest must shed.
	c1 := b.Submit(1)
	deadline := time.Now().Add(5 * time.Second)
	for b.Flushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never picked up the first record")
		}
		time.Sleep(time.Millisecond)
	}
	c2 := b.Submit(2)
	shed := 0
	for i := 0; i < 50; i++ {
		if r := <-b.Submit(100 + i); errors.Is(r.Err, ErrQueueFull) {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no record shed with a wedged flusher and a full queue")
	}
	close(block)
	if r := <-c1; r.Err != nil {
		t.Fatalf("record 1: %v", r.Err)
	}
	if r := <-c2; r.Err != nil {
		t.Fatalf("record 2: %v", r.Err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := processed.Load(); got != 2 {
		t.Fatalf("processed %d records, want exactly the 2 admitted", got)
	}
}

// TestFaultedFlushFailsOnlyItsBatch: a processor error fails every item of
// its own flush with one typed *BatchError (epoch, size, attempts, cause
// all visible) and no other flush.
func TestFaultedFlushFailsOnlyItsBatch(t *testing.T) {
	boom := errors.New("boom")
	var flush atomic.Int64
	b := New(Config{BatchSize: 4, MaxWait: -1},
		func(batch []int) ([]int, func(), error) {
			if flush.Add(1) == 2 {
				return nil, nil, boom
			}
			return append([]int(nil), batch...), nil, nil
		})
	var chans []<-chan Result[int]
	for i := 0; i < 12; i++ {
		chans = append(chans, b.Submit(i))
	}
	res := collect(t, chans)
	for i, r := range res {
		inFaulted := i >= 4 && i < 8
		if inFaulted {
			var be *BatchError
			if !errors.As(r.Err, &be) {
				t.Fatalf("record %d: got %v, want *BatchError", i, r.Err)
			}
			if be.Epoch != 2 || be.Records != 4 || be.Attempts != 1 || !errors.Is(r.Err, boom) {
				t.Fatalf("record %d: bad BatchError %+v", i, be)
			}
		} else if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if err := b.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close: got %v, want the sticky first flush error", err)
	}
	if b.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", b.Faults())
	}
}

// TestProcessorPanicContained: a panicking processor (or commit) is
// recovered into the batch's error; the flusher survives and later
// batches commit.
func TestProcessorPanicContained(t *testing.T) {
	var flush atomic.Int64
	b := New(Config{BatchSize: 2, MaxWait: -1},
		func(batch []int) ([]int, func(), error) {
			if flush.Add(1) == 1 {
				panic("processor bug")
			}
			return append([]int(nil), batch...), nil, nil
		})
	c0 := b.Submit(0)
	c1 := b.Submit(1)
	c2 := b.Submit(2)
	c3 := b.Submit(3)
	if r := <-c0; r.Err == nil || fmt.Sprint(errorsCause(r.Err)) == "" {
		t.Fatalf("faulted batch record: %+v", r)
	}
	if r := <-c1; r.Err == nil {
		t.Fatal("second record of faulted batch must fail too")
	}
	if r := <-c2; r.Err != nil || r.Out != 2 {
		t.Fatalf("post-fault batch: got (%d, %v)", r.Out, r.Err)
	}
	if r := <-c3; r.Err != nil {
		t.Fatalf("post-fault batch: %v", r.Err)
	}
	b.Close()
}

func errorsCause(err error) error {
	var be *BatchError
	if errors.As(err, &be) {
		return be.Cause
	}
	return err
}

// TestRetryTransient: a transiently-failing flush (per RetryIf) is retried
// with backoff and commits on success; Attempts is visible on a terminal
// failure.
func TestRetryTransient(t *testing.T) {
	var attempts atomic.Int64
	b := New(Config{BatchSize: 2, MaxWait: -1, Retries: 2, Backoff: time.Microsecond},
		func(batch []int) ([]int, func(), error) {
			if attempts.Add(1) == 1 {
				return nil, nil, context.DeadlineExceeded
			}
			return append([]int(nil), batch...), nil, nil
		})
	c0, c1 := b.Submit(0), b.Submit(1)
	if r := <-c0; r.Err != nil {
		t.Fatalf("retried flush should commit: %v", r.Err)
	}
	<-c1
	if attempts.Load() != 2 {
		t.Fatalf("made %d attempts, want 2", attempts.Load())
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close after successful retry: %v", err)
	}

	// Non-transient errors are not retried.
	var n atomic.Int64
	boom := errors.New("deterministic")
	b2 := New(Config{BatchSize: 1, MaxWait: -1, Retries: 3, Backoff: time.Microsecond},
		func(batch []int) ([]int, func(), error) { n.Add(1); return nil, nil, boom })
	r := <-b2.Submit(1)
	var be *BatchError
	if !errors.As(r.Err, &be) || be.Attempts != 1 {
		t.Fatalf("non-transient failure: %+v", r.Err)
	}
	if n.Load() != 1 {
		t.Fatalf("non-transient error retried %d times", n.Load()-1)
	}
	b2.Close()

	// Retries exhausted: Attempts reports 1+Retries.
	b3 := New(Config{BatchSize: 1, MaxWait: -1, Retries: 2, Backoff: time.Microsecond,
		RetryIf: func(error) bool { return true }},
		func(batch []int) ([]int, func(), error) { return nil, nil, boom })
	r = <-b3.Submit(1)
	if !errors.As(r.Err, &be) || be.Attempts != 3 {
		t.Fatalf("exhausted retries: %+v", r.Err)
	}
	b3.Close()
}

// TestSubmitCtx: a producer waiting on a full queue can bail via its
// context without its record entering the stream.
func TestSubmitCtx(t *testing.T) {
	block := make(chan struct{})
	b := New(Config{BatchSize: 1, MaxWait: -1, QueueDepth: 1},
		func(batch []int) ([]int, func(), error) {
			<-block
			return append([]int(nil), batch...), nil, nil
		})
	defer b.Close()    // runs after close(block) (LIFO): the flusher
	defer close(block) // must unpark before Close can join it

	b.Submit(1) // flusher parks on block
	deadline := time.Now().Add(5 * time.Second)
	for b.Flushes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never started")
		}
		time.Sleep(time.Millisecond)
	}
	b.Submit(2) // fills the queue
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if r := <-b.SubmitCtx(ctx, 3); !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("ctx-bounded submit on full queue: got %v", r.Err)
	}
}

// TestConcurrentProducersAndCloseNoLeak: many producers race Close; every
// result channel settles with either a real result or ErrStreamClosed,
// and no goroutine outlives Close.
func TestConcurrentProducersAndCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		var commits atomic.Int64
		b := New(Config{BatchSize: 32, MaxWait: time.Millisecond, QueueDepth: 64}, echoProc(&commits))
		var wg sync.WaitGroup
		var delivered, closedErrs atomic.Int64
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					r := <-b.Submit(p*1000 + i)
					switch {
					case r.Err == nil:
						delivered.Add(1)
					case errors.Is(r.Err, ErrStreamClosed):
						closedErrs.Add(1)
					default:
						t.Errorf("unexpected error: %v", r.Err)
						return
					}
				}
			}(p)
		}
		// Close while producers are mid-stream.
		time.Sleep(time.Duration(round) * time.Millisecond)
		if err := b.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if delivered.Load()+closedErrs.Load() != 2000 {
			t.Fatalf("settled %d+%d results, want 2000", delivered.Load(), closedErrs.Load())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after Close, baseline %d: flusher leak", g, before)
	}
}

// TestProcessorOutputContract: a processor returning the wrong output
// count fails the batch instead of mis-delivering results.
func TestProcessorOutputContract(t *testing.T) {
	b := New(Config{BatchSize: 4, MaxWait: -1},
		func(batch []int) ([]int, func(), error) { return batch[:1], nil, nil })
	chans := []<-chan Result[int]{b.Submit(0), b.Submit(1), b.Submit(2), b.Submit(3)}
	for _, c := range chans {
		var be *BatchError
		if r := <-c; !errors.As(r.Err, &be) {
			t.Fatalf("contract violation must fail the batch, got %+v", r)
		}
	}
	b.Close()
}

// TestQueueSmallerThanBatch: QueueDepth counts sealed records only, so an
// open batch can always fill to BatchSize and seal even when the queue
// bound is below the batch size; a single producer's records all deliver.
func TestQueueSmallerThanBatch(t *testing.T) {
	var commits atomic.Int64
	b := New(Config{BatchSize: 8, MaxWait: -1, QueueDepth: 2}, echoProc(&commits))
	chans := make([]<-chan Result[int], 0, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			chans = append(chans, b.Submit(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer stalled on a queue bound below the batch size")
	}
	for i, r := range collect(t, chans) {
		if r.Err != nil || r.Out != i {
			t.Fatalf("record %d: got (%d, %v)", i, r.Out, r.Err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if commits.Load() != 8 {
		t.Fatalf("expected 8 commits, got %d", commits.Load())
	}
}

// wedgedBatcher returns a batcher with BatchSize 1 and QueueDepth 1 whose
// flusher is parked inside the processor on record 1 (until release is
// closed) and whose queue is full with record 2.
func wedgedBatcher(t *testing.T) (b *Batcher[int, int], release chan struct{}, first []<-chan Result[int]) {
	t.Helper()
	release = make(chan struct{})
	b = New(Config{BatchSize: 1, MaxWait: -1, QueueDepth: 1},
		func(batch []int) ([]int, func(), error) {
			<-release
			return append([]int(nil), batch...), nil, nil
		})
	first = append(first, b.Submit(1))
	waitFor(t, "flusher to take record 1", func() bool { return b.Flushes() == 1 })
	first = append(first, b.Submit(2))
	return b, release, first
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *Batcher[R, O]) waiting() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiters
}

// TestBlockedProducerAdmittedAcrossClose: a producer already blocked on a
// full queue when Close begins is admitted and drained — it receives its
// real result, not ErrStreamClosed.
func TestBlockedProducerAdmittedAcrossClose(t *testing.T) {
	b, release, first := wedgedBatcher(t)
	blocked := make(chan (<-chan Result[int]), 1)
	go func() { blocked <- b.Submit(3) }()
	waitFor(t, "producer to block on the full queue", func() bool { return b.waiting() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	waitFor(t, "Close to begin", b.Closed)
	close(release)

	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if r := <-<-blocked; r.Err != nil || r.Out != 3 {
		t.Fatalf("producer blocked across Close: got (%d, %v), want (3, nil)", r.Out, r.Err)
	}
	for i, r := range collect(t, first) {
		if r.Err != nil || r.Out != i+1 {
			t.Fatalf("record %d: got (%d, %v)", i+1, r.Out, r.Err)
		}
	}
	if m := b.Metrics(); m.Submitted != 3 || m.Flushes != 3 {
		t.Fatalf("submitted=%d flushes=%d, want 3/3", m.Submitted, m.Flushes)
	}
}

// TestSubmitCtxTimeoutNotCounted: a SubmitCtx that gives up waiting for
// space never enters the stream — Submitted does not count it — and Close
// still drains and returns.
func TestSubmitCtxTimeoutNotCounted(t *testing.T) {
	b, release, first := wedgedBatcher(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if r := <-b.SubmitCtx(ctx, 3); !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("ctx-bounded submit on full queue: got %v", r.Err)
	}
	if m := b.Metrics(); m.Submitted != 2 {
		t.Fatalf("submitted = %d after a timed-out SubmitCtx, want 2", m.Submitted)
	}
	close(release)
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after a timed-out SubmitCtx")
	}
	collect(t, first)
	if m := b.Metrics(); m.Submitted != 2 || m.Flushes != 2 {
		t.Fatalf("submitted=%d flushes=%d, want 2/2", m.Submitted, m.Flushes)
	}
}

// TestEpochsHoldSubmitOrder: with one producer and size-only flushes,
// epoch k (1-based) holds exactly records [(k-1)B, kB) in submit order.
func TestEpochsHoldSubmitOrder(t *testing.T) {
	const B, batches = 16, 40
	var epoch int64
	got := map[int64][]int{}
	b := New(Config{BatchSize: B, MaxWait: -1, QueueDepth: 2 * B,
		OnFlush: func(e int64, _ int) { epoch = e }},
		func(batch []int) ([]int, func(), error) {
			got[epoch] = append([]int(nil), batch...) // flusher goroutine only
			return append([]int(nil), batch...), nil, nil
		})
	chans := make([]<-chan Result[int], B*batches)
	for i := range chans {
		chans[i] = b.Submit(i)
	}
	collect(t, chans)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != batches {
		t.Fatalf("%d epochs, want %d", len(got), batches)
	}
	for k := int64(1); k <= batches; k++ {
		recs := got[k]
		if len(recs) != B {
			t.Fatalf("epoch %d holds %d records, want %d", k, len(recs), B)
		}
		for j, r := range recs {
			if want := int(k-1)*B + j; r != want {
				t.Fatalf("epoch %d position %d: record %d, want %d", k, j, r, want)
			}
		}
	}
}

// TestDeadlineFlushWithoutFurtherSubmits: a partial batch flushes by
// MaxWait although no later Submit (and so no seal) ever wakes the
// flusher, and the queue-wait histogram sees that batch wait at least
// MaxWait. A first size flush lets the flusher go back to sleep before the
// partial batch starts, so only the batch's own first record can wake it.
func TestDeadlineFlushWithoutFurtherSubmits(t *testing.T) {
	const B, wait = 8, 20 * time.Millisecond
	var commits atomic.Int64
	b := New(Config{BatchSize: B, MaxWait: wait}, echoProc(&commits))
	defer b.Close()
	chans := make([]<-chan Result[int], B)
	for i := range chans {
		chans[i] = b.Submit(i)
	}
	collect(t, chans)
	time.Sleep(10 * time.Millisecond) // let the flusher park on its doorbell
	chans = chans[:5]
	for i := range chans {
		chans[i] = b.Submit(B + i)
	}
	for i, r := range collect(t, chans) {
		if r.Err != nil || r.Out != B+i {
			t.Fatalf("record %d: got (%d, %v)", B+i, r.Out, r.Err)
		}
	}
	m := b.Metrics()
	if m.FlushBySize != 1 || m.FlushByDeadline != 1 || m.Flushes != 2 {
		t.Fatalf("size=%d deadline=%d flushes=%d, want 1/1/2", m.FlushBySize, m.FlushByDeadline, m.Flushes)
	}
	if m.QueueWaitNS.Count() != 2 {
		t.Fatalf("queue-wait histogram has %d observations for 2 flushes", m.QueueWaitNS.Count())
	}
	// Bucket i holds [2^(i-1), 2^i); the deadline batch's wait >= MaxWait
	// lands at or above MaxWait's own bucket.
	var atLeastMaxWait int64
	for _, c := range m.QueueWaitNS.Counts[bits.Len64(uint64(wait.Nanoseconds())):] {
		atLeastMaxWait += c
	}
	if atLeastMaxWait != 1 {
		t.Fatalf("%d queue waits at or above MaxWait %v, want 1 (%s)", atLeastMaxWait, wait, &m.QueueWaitNS)
	}
}

// BenchmarkBatcherSubmit measures the producer-to-flusher handoff alone:
// an echo processor, so no engine call, at 1 and 4 producers. One op is
// one record, so ns/op and allocs/op are per record. Each producer keeps
// at most 2 batches of its own results outstanding.
func BenchmarkBatcherSubmit(b *testing.B) {
	const batch = 1024
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			var commits atomic.Int64
			bt := New(Config{BatchSize: batch, MaxWait: -1}, echoProc(&commits))
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				n := b.N / producers
				if p < b.N%producers {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					ring := make([]<-chan Result[int], 2*batch)
					for i := 0; i < n; i++ {
						slot := i % len(ring)
						if ring[slot] != nil {
							<-ring[slot]
						}
						ring[slot] = bt.Submit(i)
					}
				}()
			}
			wg.Wait()
			if err := bt.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

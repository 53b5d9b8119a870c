package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// Typed sentinel errors of the streaming front end. They follow the
// ErrPipelineConsumed pattern: the root package re-exports them, and the
// concrete errors delivered on result channels wrap them (or the underlying
// cause) for errors.Is matching.
var (
	// ErrQueueFull is returned (on the result channel) by a shedding
	// stream when the bounded submit queue is full: the record was never
	// enqueued and no flush will see it. Blocking streams never return it.
	ErrQueueFull = errors.New("semisort: stream queue full, record shed")

	// ErrStreamClosed is returned (on the result channel) for records
	// submitted after Close began. Records enqueued before Close are never
	// rejected with it — Close drains them.
	ErrStreamClosed = errors.New("semisort: stream closed")
)

// BatchError is the error delivered to every item of a flush whose process
// phase faulted (after retries, if configured). Cause is the underlying
// fault — a *parallel.PanicError for a user-callback panic, or a context
// error for a cancelled driver call — and is exposed via Unwrap, so
// errors.Is(err, context.Canceled) and errors.As(err, &pe) both see
// through it. The batch's epoch and size identify which flush died.
type BatchError struct {
	Epoch    int64       // 1-based flush ordinal within the stream
	Records  int         // records in the failed batch
	Attempts int         // process attempts made (1 + retries)
	Reason   FlushReason // what triggered the doomed flush (size, deadline, drain)
	Cause    error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("semisort: stream flush %d (%d records, %d attempts, %s-triggered) failed: %v",
		e.Epoch, e.Records, e.Attempts, e.Reason, e.Cause)
}

func (e *BatchError) Unwrap() error { return e.Cause }

// Result is the terminal outcome of one submitted record: exactly one
// Result is delivered on the 1-buffered channel Submit returns, so a
// producer may receive it at leisure or abandon the channel entirely
// without leaking a goroutine.
type Result[O any] struct {
	Out O
	Err error
}

// Config shapes a Batcher. The zero value gets usable defaults.
type Config struct {
	// BatchSize flushes a batch when it reaches this many records
	// (default 1024).
	BatchSize int

	// MaxWait flushes a partial batch this long after its FIRST record was
	// enqueued into it, bounding the latency a trickle of records can
	// experience (zero means the 50ms default; < 0 disables the deadline —
	// only size and Close flush).
	MaxWait time.Duration

	// QueueDepth bounds the submit queue (default 4*BatchSize): the records
	// in sealed batches awaiting the flusher. The open batch is not
	// counted, so it can always fill to BatchSize and seal. A full queue
	// blocks producers (backpressure) unless Shed is set.
	QueueDepth int

	// Shed makes Submit fail fast with ErrQueueFull when the queue is full
	// instead of blocking the producer.
	Shed bool

	// Retries re-runs a failed process phase up to this many extra times
	// before failing the batch, provided RetryIf accepts the error.
	Retries int

	// Backoff is the sleep before the first retry, doubling per attempt
	// (default 1ms when Retries > 0).
	Backoff time.Duration

	// RetryIf classifies flush errors as transient. Nil defaults to
	// cancellation errors (context.Canceled / context.DeadlineExceeded) —
	// the shape a per-flush deadline or a briefly-cancelled runtime
	// produces; a user-callback panic is assumed deterministic and is not
	// retried by default.
	RetryIf func(error) bool

	// OnFlush, when non-nil, observes each flush: it runs on the flusher
	// goroutine at the start of the flush's FIRST attempt (retries do not
	// re-fire it), before the processor. epoch is the 1-based flush
	// ordinal, records the batch size. It runs inside the flush's recovery
	// scope: a panicking hook faults the batch like a panicking processor
	// (the chaos harness relies on exactly that to land faults at the k-th
	// flush).
	OnFlush func(epoch int64, records int)
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 1024
	}
	if c.MaxWait == 0 {
		c.MaxWait = 50 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.BatchSize
	}
	if c.Retries > 0 && c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.RetryIf == nil {
		c.RetryIf = func(err error) bool {
			return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
	}
	return c
}

// batch is the unit of the producer-to-flusher handoff: the records and
// their result channels in parallel slices, so the processor receives recs
// as is, plus the enqueue time of the first record (one clock read per
// batch, which times both MaxWait and the queue wait).
type batch[R, O any] struct {
	recs []R
	res  []chan Result[O]
	t0   time.Time
}

// Batcher coalesces records from any number of producer goroutines into
// batches and hands them to a processor, delivering one Result per record.
//
// The processor returns per-item outputs, an optional commit closure, and
// an error. The batcher invokes commit only when the processor returned
// cleanly — the epoch-commit contract of the package doc — and recovers
// processor panics into typed errors, so one poisoned batch never kills
// the flusher. The processor must not retain the batch slice past its
// return: a retry re-presents the same backing array, and the slice is
// recycled for a later batch once the flush has delivered its results.
//
// Producers append to one open batch under a mutex; at BatchSize it is
// sealed into a FIFO and the flusher's doorbell rings, so the flusher
// wakes once per batch, not once per record. Exactly one flusher goroutine
// exists per Batcher; it is the only caller of the processor, so
// processors may stage state deltas without internal locking against each
// other. Close stops admission, drains the queue, flushes the final
// partial batch, settles every outstanding result channel, and joins the
// flusher — a closed Batcher holds no goroutines.
type Batcher[R, O any] struct {
	cfg  Config
	proc func(batch []R) (outs []O, commit func(), err error)

	// mu guards the handoff state below. Every admission happens under it,
	// so Close (which sets closed under it) can never miss a record.
	mu      sync.Mutex
	open    *batch[R, O]   // batch being filled; nil until its first record
	sealed  []*batch[R, O] // full batches awaiting the flusher, oldest first
	free    []*batch[R, O] // flushed batches kept for reuse
	depth   int            // records in sealed (the QueueDepth bound)
	waiters int            // blocked producers waiting for space
	space   chan struct{}  // closed when the flusher takes a batch; nil if no one waits
	closed  bool

	bell chan struct{} // the flusher's 1-buffered doorbell (see ring)
	done chan struct{}

	flushes atomic.Int64 // flush ordinals handed out (= epochs started)
	faults  atomic.Int64 // flushes that failed after retries
	m       bMetrics     // submit/flush metrics bank (see metrics.go)

	errOnce  sync.Once
	firstErr atomic.Pointer[BatchError]
}

// New creates a Batcher and starts its flusher goroutine.
func New[R, O any](cfg Config, proc func(batch []R) ([]O, func(), error)) *Batcher[R, O] {
	b := &Batcher[R, O]{
		cfg:  cfg.withDefaults(),
		proc: proc,
		bell: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit enqueues one record and returns its result channel. On a blocking
// stream it waits for queue space (backpressure); on a shedding stream a
// full queue delivers ErrQueueFull immediately. After Close has begun it
// delivers ErrStreamClosed. The channel is 1-buffered and receives exactly
// one Result; abandoning it leaks nothing.
func (b *Batcher[R, O]) Submit(r R) <-chan Result[O] { return b.submit(nil, r) }

// SubmitCtx is Submit with a context bounding the producer's wait for
// queue space: if ctx fires first, the record is not enqueued and its
// result channel delivers ctx.Err(). Shedding streams never wait, so ctx
// only guards the enqueue of blocking streams.
func (b *Batcher[R, O]) SubmitCtx(ctx context.Context, r R) <-chan Result[O] {
	return b.submit(ctx, r)
}

func (b *Batcher[R, O]) submit(ctx context.Context, r R) <-chan Result[O] {
	res := make(chan Result[O], 1)
	b.mu.Lock()
	var err error
	switch {
	case b.closed:
		err = ErrStreamClosed
	case b.depth < b.cfg.QueueDepth:
	case b.cfg.Shed:
		b.m.shed.Add(1)
		err = ErrQueueFull
	default:
		err = b.waitForSpace(ctx)
	}
	if err == nil {
		b.enqueue(r, res)
	}
	b.mu.Unlock()
	if err != nil {
		res <- Result[O]{Err: err}
	}
	return res
}

// waitForSpace parks a blocking producer until the sealed queue is below
// QueueDepth, or ctx fires. It is entered and left with mu held. A producer
// already waiting when Close begins is still admitted, and Close's drain
// waits for it (the waiter count keeps the flusher alive).
func (b *Batcher[R, O]) waitForSpace(ctx context.Context) error {
	b.waiters++
	defer func() {
		b.waiters--
		if b.closed {
			b.ring() // the draining flusher may be waiting on the last waiter
		}
	}()
	for b.depth >= b.cfg.QueueDepth {
		if b.space == nil {
			b.space = make(chan struct{})
		}
		space := b.space
		b.mu.Unlock()
		var err error
		if ctx == nil {
			<-space
		} else {
			select {
			case <-space:
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		b.mu.Lock()
		if err != nil {
			return err
		}
	}
	return nil
}

// enqueue appends one admitted record to the open batch and seals the
// batch at BatchSize. Called with mu held.
func (b *Batcher[R, O]) enqueue(r R, res chan Result[O]) {
	ob := b.open
	if ob == nil {
		if n := len(b.free); n > 0 {
			ob, b.free = b.free[n-1], b.free[:n-1]
		} else {
			ob = &batch[R, O]{recs: make([]R, 0, b.cfg.BatchSize), res: make([]chan Result[O], 0, b.cfg.BatchSize)}
		}
		ob.t0 = time.Now()
		b.open = ob
		if b.cfg.MaxWait > 0 || b.closed {
			b.ring() // the flusher arms this batch's deadline, or drains it
		}
	}
	ob.recs = append(ob.recs, r)
	ob.res = append(ob.res, res)
	b.m.submitted.Add(1)
	if len(ob.recs) < b.cfg.BatchSize {
		return
	}
	b.open = nil
	b.sealed = append(b.sealed, ob)
	b.depth += len(ob.recs)
	b.m.queueDepth.Store(int64(b.depth))
	if int64(b.depth) > b.m.queueHighWater.Load() {
		b.m.queueHighWater.Store(int64(b.depth))
	}
	b.ring()
}

// ring wakes the flusher without blocking: the doorbell holds one pending
// wake, and the flusher re-reads all handoff state under mu on every wake,
// so rings that coalesce lose nothing.
func (b *Batcher[R, O]) ring() {
	select {
	case b.bell <- struct{}{}:
	default:
	}
}

// Close stops admission (subsequent Submits deliver ErrStreamClosed),
// drains every queued record, flushes the final partial batch, waits for
// the flusher to settle every outstanding result channel and exit, and
// returns the stream's first flush error (nil if every flush committed).
// It is idempotent and safe to call concurrently; every caller blocks
// until the drain completes.
func (b *Batcher[R, O]) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.ring()
	<-b.done
	if e := b.firstErr.Load(); e != nil {
		return e
	}
	return nil
}

// Flushes reports how many flushes have started (committed or not).
func (b *Batcher[R, O]) Flushes() int64 { return b.flushes.Load() }

// Faults reports how many flushes failed after exhausting retries.
func (b *Batcher[R, O]) Faults() int64 { return b.faults.Load() }

// Closed reports whether Close has begun.
func (b *Batcher[R, O]) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// run is the flusher: it takes batches in submit order (flush at
// BatchSize, at MaxWait after a batch's first record, and at drain),
// flushes them, and recycles their slices. Between batches it sleeps on
// the doorbell, plus a timer while an open batch has a deadline.
func (b *Batcher[R, O]) run() {
	defer close(b.done)
	var timer *time.Timer
	for {
		bt, reason, deadline, exit := b.next()
		switch {
		case bt != nil:
			b.flush(bt, reason)
			clear(bt.recs) // drop record/channel refs so the GC isn't held hostage
			clear(bt.res)
			bt.recs, bt.res = bt.recs[:0], bt.res[:0]
			b.mu.Lock()
			b.free = append(b.free, bt)
			b.mu.Unlock()
		case exit:
			return
		case deadline.IsZero():
			<-b.bell
		default:
			if timer == nil {
				timer = time.NewTimer(time.Until(deadline))
			} else {
				timer.Reset(time.Until(deadline))
			}
			select {
			case <-b.bell:
			case <-timer.C:
			}
		}
	}
}

// next picks the flusher's next batch: the oldest sealed one, else the
// open one if Close is draining or its MaxWait has expired. With nothing
// to take it returns the open batch's deadline (zero if none) to sleep
// on, or exit once Close has begun and nothing is left or waiting.
func (b *Batcher[R, O]) next() (bt *batch[R, O], reason FlushReason, deadline time.Time, exit bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.sealed) > 0 {
		bt = b.sealed[0]
		n := copy(b.sealed, b.sealed[1:])
		b.sealed[n] = nil
		b.sealed = b.sealed[:n]
		b.depth -= len(bt.recs)
		b.m.queueDepth.Store(int64(b.depth))
		if b.space != nil { // wake every producer blocked on a full queue
			close(b.space)
			b.space = nil
		}
		return bt, FlushBySize, time.Time{}, false
	}
	ob := b.open
	switch {
	case ob == nil:
		return nil, 0, time.Time{}, b.closed && b.waiters == 0
	case b.closed:
		b.open = nil
		return ob, FlushByDrain, time.Time{}, false
	case b.cfg.MaxWait <= 0:
		return nil, 0, time.Time{}, false
	}
	deadline = ob.t0.Add(b.cfg.MaxWait)
	if time.Now().Before(deadline) {
		return nil, 0, deadline, false
	}
	b.open = nil
	return ob, FlushByDeadline, time.Time{}, false
}

// flush runs one epoch: process (with bounded retries), then commit, then
// result delivery. A fault after retries fails exactly this batch's items
// with one shared *BatchError.
func (b *Batcher[R, O]) flush(bt *batch[R, O], reason FlushReason) {
	epoch := b.flushes.Add(1)
	switch reason {
	case FlushBySize:
		b.m.flushSize.Add(1)
	case FlushByDeadline:
		b.m.flushDeadline.Add(1)
	case FlushByDrain:
		b.m.flushDrain.Add(1)
	}
	b.m.flushRecords.Observe(int64(len(bt.recs)))
	t0 := time.Now()
	b.m.queueWaitNS.Observe(t0.Sub(bt.t0).Nanoseconds())
	var outs []O
	var err error
	for attempt := 0; ; attempt++ {
		outs, err = b.attempt(bt.recs, epoch, attempt)
		if err == nil || attempt >= b.cfg.Retries || !b.cfg.RetryIf(err) {
			if err != nil {
				err = &BatchError{Epoch: epoch, Records: len(bt.recs), Attempts: attempt + 1,
					Reason: reason, Cause: err}
			}
			break
		}
		b.m.retries.Add(1)
		time.Sleep(b.cfg.Backoff << attempt)
	}
	if err == nil && len(outs) != len(bt.recs) {
		// A processor contract violation is a bug, not a data fault — but
		// it must still fail the batch rather than mis-deliver results.
		err = &BatchError{Epoch: epoch, Records: len(bt.recs), Attempts: 1, Reason: reason,
			Cause: fmt.Errorf("semisort: stream processor returned %d outputs for %d records", len(outs), len(bt.recs))}
	}
	if err == nil {
		// Commit latency: first attempt start through commit return, the
		// epoch's end-to-end cost as the stream saw it.
		b.m.commitNS.Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		b.faults.Add(1)
		be := err.(*BatchError)
		b.errOnce.Do(func() { b.firstErr.Store(be) })
		for _, res := range bt.res {
			res <- Result[O]{Err: be}
		}
		return
	}
	for i, res := range bt.res {
		res <- Result[O]{Out: outs[i]}
	}
}

// attempt runs one process attempt under a recovery scope: a panic in the
// flush hook, the driver call, a state probe, or the commit closure is
// converted to a typed error — *parallel.PanicError, or the bare context
// error when the panic was the engine's cancellation unwind — so the
// flusher survives any fault a batch can throw at it.
func (b *Batcher[R, O]) attempt(recs []R, epoch int64, attempt int) (outs []O, err error) {
	defer func() {
		if r := recover(); r != nil {
			if cause := parallel.CancelCause(r); cause != nil {
				err = cause
				return
			}
			err = parallel.AsPanicError(r)
		}
	}()
	if attempt == 0 && b.cfg.OnFlush != nil {
		b.cfg.OnFlush(epoch, len(recs))
	}
	outs, commit, perr := b.proc(recs)
	if perr != nil {
		return nil, perr
	}
	if commit != nil {
		commit()
	}
	return outs, nil
}

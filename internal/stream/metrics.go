package stream

import (
	"sync/atomic"

	"repro/internal/obs"
)

// FlushReason records why a batch left the assembly buffer. It rides on
// every *BatchError (so a fault report says which trigger built the doomed
// batch) and is tallied per reason in the batcher's metrics.
type FlushReason uint8

const (
	// FlushBySize: the batch reached Config.BatchSize.
	FlushBySize FlushReason = iota
	// FlushByDeadline: Config.MaxWait elapsed after the batch's first record.
	FlushByDeadline
	// FlushByDrain: Close drained the final partial batch.
	FlushByDrain
)

func (r FlushReason) String() string {
	switch r {
	case FlushBySize:
		return "size"
	case FlushByDeadline:
		return "deadline"
	case FlushByDrain:
		return "drain"
	}
	return "unknown"
}

// bMetrics is the batcher's internal counter bank: plain atomics bumped at
// submit/flush boundaries (never per record inside a flush) plus three
// fixed-bucket histograms. Snapshot lock-free by Metrics.
type bMetrics struct {
	submitted      atomic.Int64      // records accepted into the queue
	shed           atomic.Int64      // records refused with ErrQueueFull
	queueDepth     atomic.Int64      // records in sealed batches (copy of Batcher.depth)
	queueHighWater atomic.Int64      // max queue depth observed at a seal
	retries        atomic.Int64      // extra process attempts across all flushes
	flushSize      atomic.Int64      // flushes triggered by BatchSize
	flushDeadline  atomic.Int64      // flushes triggered by MaxWait
	flushDrain     atomic.Int64      // flushes triggered by Close's drain
	flushRecords   obs.AtomicLogHist // batch sizes, log2 buckets
	commitNS       obs.AtomicLogHist // successful flush latency (process+commit), ns
	queueWaitNS    obs.AtomicLogHist // first record's enqueue to flush start, ns
}

// Metrics is one lock-free snapshot of a Batcher's counters. Each field is
// read atomically; the set is not globally consistent (fields may straddle
// a concurrent flush), which is fine for monitoring — every individual
// counter is exact.
type Metrics struct {
	// Submitted counts records accepted into the queue; Shed counts records
	// a shedding stream refused with ErrQueueFull (never enqueued).
	Submitted int64
	Shed      int64
	// QueueDepth is the instantaneous queue length: records in sealed
	// batches awaiting the flusher (the open batch still filling is not
	// counted). QueueHighWater is the deepest the queue has been.
	QueueDepth     int64
	QueueHighWater int64
	// Flushes / Faults mirror the Flushes() and Faults() accessors; Retries
	// counts extra process attempts summed over all flushes.
	Flushes int64
	Faults  int64
	Retries int64
	// Per-reason flush tallies (their sum is Flushes).
	FlushBySize     int64
	FlushByDeadline int64
	FlushByDrain    int64
	// FlushRecords buckets batch sizes; CommitNS buckets the latency of
	// successful flushes (first attempt start through commit return);
	// QueueWaitNS buckets, per flush, the time from the batch's first
	// enqueue to the flush's start. All three use log2 buckets.
	FlushRecords obs.LogHist
	CommitNS     obs.LogHist
	QueueWaitNS  obs.LogHist
}

// Metrics snapshots the batcher's counters. Lock-free and allocation-light;
// safe to call from a monitoring goroutine while producers and the flusher
// run at full rate.
func (b *Batcher[R, O]) Metrics() Metrics {
	return Metrics{
		Submitted:       b.m.submitted.Load(),
		Shed:            b.m.shed.Load(),
		QueueDepth:      b.m.queueDepth.Load(),
		QueueHighWater:  b.m.queueHighWater.Load(),
		Flushes:         b.flushes.Load(),
		Faults:          b.faults.Load(),
		Retries:         b.m.retries.Load(),
		FlushBySize:     b.m.flushSize.Load(),
		FlushByDeadline: b.m.flushDeadline.Load(),
		FlushByDrain:    b.m.flushDrain.Load(),
		FlushRecords:    b.m.flushRecords.Snapshot(),
		CommitNS:        b.m.commitNS.Snapshot(),
		QueueWaitNS:     b.m.queueWaitNS.Snapshot(),
	}
}

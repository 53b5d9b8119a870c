package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. The host this benchmark was tuned on gives it 2
// vCPUs of a shared machine, whose speed drifts by up to 30% within
// minutes, for every process alike (see README.md, "Host speed"). The
// untraced children therefore run a fixed probe before and after set-up
// and after every timed job, at the job's GOMAXPROCS, and the parent
// rescales each child's times to the probe's speed on the reference host.
// The probe is the benchmark's own code, identical on every commit, and
// allocates nothing once its counters are mapped, so the program under
// test cannot change its time through the heap it leaves behind. The
// counters live outside the Go heap, so they do not raise the collector's
// heap goal either, and the child subtracts their size from its peak RSS.

const (
	probeLaneBits = 23      // 8 Mi 32-bit counters (32 MiB) per worker
	probeOps      = 1 << 22 // scattered increments per worker
	// probeRefS is the probe's time on the reference host (2 vCPU,
	// 105 MiB L3), at both GOMAXPROCS: a scaled job time is the job's time
	// on that host running at that probe speed.
	probeRefS = 0.086
)

// prober holds the probe's counters, one lane per worker.
type prober struct{ table []uint32 }

// newProber maps counters for up to workers lanes and runs the probe once,
// so that every page is resident before the first timed probe.
func newProber(workers int) (*prober, error) {
	b, err := syscall.Mmap(-1, 0, workers<<probeLaneBits*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map probe counters: %w", err)
	}
	p := &prober{table: unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)}
	p.run()
	return p, nil
}

// sizeMB is the memory the counters hold.
func (p *prober) sizeMB() float64 { return float64(len(p.table)*4) / (1 << 20) }

// run makes probeOps hashed increments into each of GOMAXPROCS lanes, one
// goroutine per lane, and returns the seconds they took: hashing and
// memory traffic much like a semisort's scatter, with the lanes far larger
// than the caches.
func (p *prober) run() float64 {
	workers := min(runtime.GOMAXPROCS(0), len(p.table)>>probeLaneBits)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane []uint32) {
			defer wg.Done()
			mask := uint64(len(lane) - 1)
			for i := uint64(0); i < probeOps; i++ {
				lane[mix(i)&mask]++
			}
		}(p.table[w<<probeLaneBits : (w+1)<<probeLaneBits])
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// probeScale returns the factor that rescales the times a child measured
// between the given probes to the reference host: probeRefS over their
// median. A child lasts seconds, the host's drift takes minutes, and the
// median keeps one disturbed probe from moving every job of the child.
func probeScale(probes []float64) float64 { return probeRefS / median(probes) }

package parallel

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestGetBufSizing(t *testing.T) {
	var sc Scratch
	b := GetBuf[int32](&sc, 100)
	if len(b.S) != 100 {
		t.Fatalf("buffer length %d, want 100", len(b.S))
	}
	for i := range b.S {
		b.S[i] = int32(i)
	}
	b.Release()
	// A bigger request after release must grow.
	b2 := GetBuf[int32](&sc, 5000)
	if len(b2.S) != 5000 {
		t.Fatalf("buffer length %d, want 5000", len(b2.S))
	}
	b2.Release()
}

func TestGetBufReusesAcrossCalls(t *testing.T) {
	var sc Scratch
	b := GetBuf[uint16](&sc, 1<<12)
	p := &b.S[0]
	b.Release()
	got := false
	// The idle sweep may drop items across GC cycles, so accept reuse on
	// any of a few tries.
	for i := 0; i < 8 && !got; i++ {
		b2 := GetBuf[uint16](&sc, 1<<12)
		got = &b2.S[0] == p
		b2.Release()
	}
	if !got {
		t.Skip("pool dropped the buffer (GC); nothing to assert")
	}
}

func TestGetBufDistinctTypesDoNotMix(t *testing.T) {
	var sc Scratch
	a := GetBuf[int32](&sc, 64)
	b := GetBuf[uint32](&sc, 64)
	a.S[0], b.S[0] = 7, 9
	if a.S[0] != 7 || b.S[0] != 9 {
		t.Fatal("typed pools aliased")
	}
	a.Release()
	b.Release()
}

func TestGetBufConcurrent(t *testing.T) {
	var sc Scratch
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := GetBuf[int](&sc, 256+i)
				for j := range b.S {
					b.S[j] = g
				}
				for j := range b.S {
					if b.S[j] != g {
						t.Errorf("buffer shared between goroutines")
						break
					}
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
}

func TestGetObjRoundTrip(t *testing.T) {
	type scratchObj struct{ xs []int }
	var sc Scratch
	o := GetObj[scratchObj](&sc)
	if o == nil || o.xs != nil {
		t.Fatal("fresh object must be zero-valued")
	}
	o.xs = append(o.xs, 1, 2, 3)
	PutObj(&sc, o)
	o2 := GetObj[scratchObj](&sc)
	// Either the recycled object (with state) or a fresh one; both usable.
	_ = o2
}

func TestZero(t *testing.T) {
	var sc Scratch
	b := GetBuf[int64](&sc, 32)
	for i := range b.S {
		b.S[i] = 5
	}
	b.Zero()
	for i := range b.S {
		if b.S[i] != 0 {
			t.Fatal("Zero left data behind")
		}
	}
	b.Release()
}

func TestSlottedLanesDisjointAndPadded(t *testing.T) {
	var sc Scratch
	sl := GetSlotted[uint32](&sc, 4, 10)
	defer sl.Release()
	sl.Zero()
	for w := 0; w < 4; w++ {
		lane := sl.Lane(w)
		if len(lane) != 10 {
			t.Fatalf("lane length %d want 10", len(lane))
		}
		for i := range lane {
			lane[i] = uint32(w + 1)
		}
	}
	// Writes through one lane must never reach another (full-length writes
	// above would trample neighbours if strides overlapped).
	for w := 0; w < 4; w++ {
		for i, v := range sl.Lane(w) {
			if v != uint32(w+1) {
				t.Fatalf("lane %d index %d = %d, overwritten by a neighbour", w, i, v)
			}
		}
	}
	// Padding: consecutive lanes at least a cache line apart.
	a, b := sl.Lane(0), sl.Lane(1)
	gap := uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&a[len(a)-1]))
	if gap < 64 {
		t.Fatalf("lanes only %d bytes apart, want >= 64", gap)
	}
	// Appending to a lane must not be possible into the next lane's space.
	if cap(a) != len(a) {
		t.Fatalf("lane capacity %d exceeds length %d (three-index slice expected)", cap(a), len(a))
	}
}

func TestSlottedReuse(t *testing.T) {
	// Get/Release must recycle through the arena: steady-state round-trips
	// allocate (close to) nothing. The idle sweep may drop an occasional
	// buffer across GC cycles, so assert a small average, not strict zero.
	var sc Scratch
	sl := GetSlotted[byte](&sc, 2, 100)
	sl.Release()
	allocs := testing.AllocsPerRun(50, func() {
		s := GetSlotted[byte](&sc, 2, 100)
		s.Lane(1)[0] = 1
		s.Release()
	})
	if allocs > 1 {
		t.Fatalf("steady-state GetSlotted/Release allocates %.1f objects/op, want ~0", allocs)
	}
}

func TestGetBufReuseIndependentOfP(t *testing.T) {
	// Buffers released by workers spread over several Ps must all be
	// leasable afterwards from any P: the free lists belong to the arena,
	// not to a P, so reuse cannot depend on GOMAXPROCS or on where a worker
	// ran (sync.Pool's per-P private slots made it depend on both).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var sc Scratch
	const k = 16
	for round := 0; round < 10; round++ {
		runtime.GOMAXPROCS(4)
		bufs := make([]*Buf[uint64], k)
		released := map[*uint64]bool{}
		for i := range bufs {
			bufs[i] = GetBuf[uint64](&sc, 1000)
			released[&bufs[i].S[0]] = true
		}
		var wg sync.WaitGroup
		for _, b := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.Release()
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(1 + round%2)
		for i := range bufs {
			bufs[i] = GetBuf[uint64](&sc, 1000)
			if !released[&bufs[i].S[0]] {
				t.Fatalf("round %d: lease %d got a fresh buffer with %d released ones pooled", round, i, k)
			}
		}
		for _, b := range bufs {
			b.Release()
		}
	}
}

func TestGetBufSmallestFit(t *testing.T) {
	var sc Scratch
	small := GetBuf[int32](&sc, 100)
	big := GetBuf[int32](&sc, 1<<16)
	ps, pb := &small.S[0], &big.S[0]
	big.Release()
	small.Release() // most recent, but a sized lease goes by class
	if b := GetBuf[int32](&sc, 1<<15); &b.S[0] != pb {
		t.Fatal("a lease that only the big buffer fits did not get it")
	} else {
		b.Release()
	}
	if b := GetBuf[int32](&sc, 50); &b.S[0] != ps {
		t.Fatal("a small lease took a bigger buffer than it needed")
	} else {
		b.Release()
	}
	// A zero-length lease (an appender) takes the most recently filed
	// buffer of any class.
	b := GetBuf[int32](&sc, 1<<16)
	b.Release()
	if z := GetBuf[int32](&sc, 0); &z.S[:1][0] != pb {
		t.Fatal("a zero-length lease did not get the most recently filed buffer")
	} else {
		z.Release()
	}
}

func TestBufGrowTradesThroughArena(t *testing.T) {
	var sc Scratch
	b := GetBuf[int](&sc, 0)
	for i := 0; i < 8; i++ {
		if len(b.S) == cap(b.S) {
			b.Grow(1)
		}
		b.S = append(b.S, i+1)
	}
	old := b.S[:cap(b.S)]
	for len(b.S) < cap(b.S) {
		b.S = append(b.S, len(b.S)+1)
	}
	n := len(b.S)
	b.Grow(1)
	if cap(b.S) < 2*n || len(b.S) != n {
		t.Fatalf("Grow: len %d cap %d, want len %d cap >= %d", len(b.S), cap(b.S), n, 2*n)
	}
	for i, v := range b.S {
		if v != i+1 {
			t.Fatalf("Grow lost contents at %d: %d", i, v)
		}
	}
	// The outgrown buffer went back to the arena, cleared.
	r := GetBuf[int](&sc, n)
	if &r.S[0] != &old[0] {
		t.Fatal("the outgrown buffer was not filed back in the arena")
	}
	for i, v := range r.S {
		if v != 0 {
			t.Fatalf("the outgrown buffer kept value %d at %d", v, i)
		}
	}
	r.Release()
	b.Release()
}

func TestIdleItemsDroppedAfterGCs(t *testing.T) {
	var sc Scratch
	b := GetBuf[uint32](&sc, 4096)
	p := &b.S[0]
	b.Release()
	start := gcEpoch.Load()
	deadline := time.Now().Add(10 * time.Second)
	for gcEpoch.Load()-start < idleGCs+1 {
		if time.Now().After(deadline) {
			t.Fatal("the GC clock did not advance")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if b := GetBuf[uint32](&sc, 4096); &b.S[0] == p {
		t.Fatal("a buffer idle for more than idleGCs cycles is still pooled")
	}
}

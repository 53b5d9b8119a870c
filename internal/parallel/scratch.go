package parallel

import (
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// Scratch is a buffer arena: a set of per-type free lists for the temporary
// slices and scratch objects the semisort kernels need on every call (record
// temporaries, counting matrices, cached bucket ids, prefix arrays, sample
// tables, base-case hash tables). One Scratch lives inside each Runtime, so
// every kernel sharing a runtime also shares its buffers and repeated calls
// allocate (close to) nothing in steady state.
//
// Buffer-reuse contract (see DESIGN.md): buffers come back with arbitrary
// contents — callers must not assume zeroed memory (use Buf.Zero when the
// kernel needs zeros). Release must not be called twice, and a released
// buffer must not be used again. Concurrent Get/Release from any goroutine
// is safe.
//
// The free lists belong to the arena, not to a P: whether a lease is served
// from the pool depends only on what the arena holds — not on GOMAXPROCS or
// on which P a worker ran on — and a buffer outgrown by its appender is
// traded back in (Buf.Grow), never dropped. The GC only reclaims what sits
// idle: a pooled item not leased again within idleGCs collections is
// dropped, so memory from past workloads goes back to the heap while every
// buffer a steady caller re-leases on each call stays pooled.
type Scratch struct {
	lists      sync.Map // reflect.Type of []T or *T -> *freeList
	registered atomic.Bool
}

// idleGCs is how many GC cycles a pooled item may sit unleased before the
// arena drops it — the same horizon as sync.Pool's victim cache, so idle
// memory goes back no later than it did when the free lists were pools.
const idleGCs = 2

// gcEpoch counts completed GC cycles, advanced by a finalizer chain (see
// startGCClock); pooled items are stamped with it when filed.
var gcEpoch atomic.Uint32

// arenas lists every Scratch that has pooled something, weakly, for the
// per-GC idle sweep.
var arenas struct {
	mu   sync.Mutex
	live []weak.Pointer[Scratch]
	once sync.Once
}

// gcTick is the finalizer-chain token: one is left unreachable per cycle,
// and its finalizer (run after the GC that found it) advances the clock,
// sweeps idle items and arms the next one. Big enough to never share a
// tiny-allocator block, whose finalizers could be delayed indefinitely.
type gcTick struct{ _ [16]byte }

func startGCClock() {
	runtime.SetFinalizer(new(gcTick), func(*gcTick) {
		sweepArenas(gcEpoch.Add(1))
		startGCClock()
	})
}

// register enrolls s in the idle sweep on its first pooled item.
func (s *Scratch) register() {
	if s.registered.Load() || !s.registered.CompareAndSwap(false, true) {
		return
	}
	arenas.once.Do(startGCClock)
	arenas.mu.Lock()
	arenas.live = append(arenas.live, weak.Make(s))
	arenas.mu.Unlock()
}

// sweepArenas drops every pooled item filed at or before GC epoch
// now-idleGCs, and forgets arenas that were collected.
func sweepArenas(now uint32) {
	arenas.mu.Lock()
	live := arenas.live[:0]
	for _, w := range arenas.live {
		if s := w.Value(); s != nil {
			live = append(live, w)
			s.lists.Range(func(_, f any) bool {
				f.(*freeList).trim(now - idleGCs)
				return true
			})
		}
	}
	clear(arenas.live[len(live):])
	arenas.live = live
	arenas.mu.Unlock()
}

// freeList is one type's free list. Slice buffers are filed by capacity
// class — stack c holds buffers whose capacity lies in [2^c, 2^(c+1)) — and
// every stack is LIFO, keeping recently touched memory hot. A sized lease
// takes from the smallest non-empty class certain to fit, so a small lease
// never holds a buffer a big one could have reused. A zero-length lease (an
// appender that cannot size itself up front) takes the most recently filed
// buffer of any class — typically one an earlier appender grew — since the
// smallest would make it regrow from scratch on every call. Either way
// every pooled buffer stays reachable by the leases it fits, so nothing
// piles up in a class no request reads. GetObj objects all live in class 0.
type freeList struct {
	mu      sync.Mutex
	filled  uint64 // bit c set iff classes[c] is non-empty
	seq     uint64 // filing clock: pooled.seq orders items across classes
	classes [64][]pooled
}

// pooled is one filed item, stamped with the filing clock and the GC epoch
// when it was filed. Each stack is ordered by both from bottom to top.
type pooled struct {
	x     any
	seq   uint64
	epoch uint32
}

// take pops an item for a lease of need class c (see freeList), or returns
// nil when none fits.
func (f *freeList) take(c int, sized bool) any {
	f.mu.Lock()
	m := f.filled >> c << c
	if m == 0 {
		f.mu.Unlock()
		return nil
	}
	k := bits.TrailingZeros64(m)
	if !sized {
		for r := m &^ (1 << k); r != 0; r &= r - 1 {
			if i := bits.TrailingZeros64(r); f.top(i) > f.top(k) {
				k = i
			}
		}
	}
	st := f.classes[k]
	x := st[len(st)-1].x
	st[len(st)-1] = pooled{}
	f.classes[k] = st[:len(st)-1]
	if len(st) == 1 {
		f.filled &^= 1 << k
	}
	f.mu.Unlock()
	return x
}

// top is the filing time of class k's most recent item (k non-empty).
func (f *freeList) top(k int) uint64 {
	st := f.classes[k]
	return st[len(st)-1].seq
}

// put files x under class c.
func (f *freeList) put(c int, x any) {
	f.mu.Lock()
	f.seq++
	f.classes[c] = append(f.classes[c], pooled{x, f.seq, gcEpoch.Load()})
	f.filled |= 1 << c
	f.mu.Unlock()
}

// trim drops the items filed at or before GC epoch cut — a prefix of each
// stack, since stacks are filed in epoch order.
func (f *freeList) trim(cut uint32) {
	f.mu.Lock()
	for m := f.filled; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		st := f.classes[c]
		k := 0
		for k < len(st) && int32(st[k].epoch-cut) <= 0 {
			k++
		}
		if k == 0 {
			continue
		}
		n := copy(st, st[k:])
		clear(st[n:])
		f.classes[c] = st[:n]
		if n == 0 {
			f.filled &^= 1 << c
		}
	}
	f.mu.Unlock()
}

// needClass is the smallest class whose every buffer holds n elements.
func needClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// heldClass is the class a buffer of capacity c is filed under.
func heldClass(c int) int {
	if c <= 1 {
		return 0
	}
	return bits.Len(uint(c)) - 1
}

// Buf is a pooled slice handle. Use the S field; call Release when done.
type Buf[T any] struct {
	S    []T
	home *freeList
	// ledger/token route Release through a call-scoped lease ledger (see
	// LeaseBuf): after the call aborts, the release is suppressed and the
	// buffer is discarded instead of re-pooled. Both are zero for plain
	// GetBuf leases.
	ledger *Ledger
	token  uint64
}

// detach forgets the buffer's ledger (Ledger.Settle's straggler path).
func (b *Buf[T]) detach() { b.ledger = nil }

// listFor returns the free list keyed by the given type, creating it once.
func (s *Scratch) listFor(key reflect.Type) *freeList {
	if f, ok := s.lists.Load(key); ok {
		return f.(*freeList)
	}
	s.register()
	f, _ := s.lists.LoadOrStore(key, &freeList{})
	return f.(*freeList)
}

// GetBuf takes an n-element slice of T from the arena: a pooled buffer that
// fits n (see freeList for which), or a fresh one. Contents are unspecified.
func GetBuf[T any](s *Scratch, n int) *Buf[T] {
	f := s.listFor(reflect.TypeFor[[]T]())
	b, _ := f.take(needClass(n), n > 0).(*Buf[T])
	if b == nil {
		b = &Buf[T]{home: f}
	}
	b.ledger = nil // pooled handles may carry a previous call's ledger
	if cap(b.S) < n {
		b.S = make([]T, ceilCap(n))
	}
	b.S = b.S[:n]
	return b
}

// Release returns the buffer to its arena, filed by its current capacity
// (a caller may have grown S by appending). A ledger-tracked buffer (see
// LeaseBuf) settles its lease first; once the call has aborted the release
// is suppressed and the buffer is discarded — never re-pooled — so a
// release running during a panic unwind cannot poison the pool.
func (b *Buf[T]) Release() {
	if lg := b.ledger; lg != nil {
		tok := b.token
		b.ledger = nil
		if !lg.settle(tok) {
			return
		}
	}
	if b.home != nil {
		b.home.put(heldClass(cap(b.S)), b)
	}
}

// Grow makes room for at least n more elements past len(b.S), keeping the
// contents. Instead of letting append reallocate (dropping the outgrown
// buffer to the GC), it trades S for a pooled buffer at least twice as
// large and files the cleared smaller one back in the arena, so an appender
// that outgrows its lease allocates nothing once the arena holds the sizes
// its calls reach.
func (b *Buf[T]) Grow(n int) {
	need := len(b.S) + n
	if need <= cap(b.S) {
		return
	}
	need = max(need, 2*cap(b.S))
	x, _ := b.home.take(needClass(need), true).(*Buf[T])
	if x == nil {
		x = &Buf[T]{S: make([]T, ceilCap(need)), home: b.home}
	}
	big := x.S[:len(b.S)]
	copy(big, b.S)
	clear(b.S) // the retired buffer must not pin the caller's values
	x.S, b.S = b.S, big
	if cap(x.S) > 0 {
		x.Release()
	}
}

// Zero clears the buffer contents.
func (b *Buf[T]) Zero() { clear(b.S) }

// Slotted is a pooled per-participant scratch block: one fixed-size lane of
// T per participant slot, indexed by the dense slot ids ForRangeW hands out.
// Lanes are padded apart by at least a cache line so participants writing
// their own lanes never false-share; the in-place semisort keeps one row of
// bucket counters per participant in them. Like every arena buffer, lanes
// come back dirty.
type Slotted[T any] struct {
	buf    *Buf[T]
	lane   int
	stride int
}

// GetSlotted takes a Slotted block with `slots` lanes of `lane` elements
// each from the arena. It is returned by value so hot callers (one counting
// pass per recursion level) do not allocate a handle.
func GetSlotted[T any](s *Scratch, slots, lane int) Slotted[T] {
	var zero T
	size := int(unsafe.Sizeof(zero))
	pad := 0
	if size > 0 {
		// At least one full cache line between consecutive lanes (one
		// element already spans a line when size >= 64).
		pad = max(1, (64+size-1)/size)
	}
	stride := lane + pad
	return Slotted[T]{buf: GetBuf[T](s, slots*stride), lane: lane, stride: stride}
}

// Lane returns participant slot w's lane. The caller owns it exclusively for
// the duration of the parallel call that produced w.
func (sl Slotted[T]) Lane(w int) []T {
	lo := w * sl.stride
	return sl.buf.S[lo : lo+sl.lane : lo+sl.lane]
}

// Zero clears every lane (padding included).
func (sl Slotted[T]) Zero() { sl.buf.Zero() }

// Release returns the block to its arena.
func (sl Slotted[T]) Release() { sl.buf.Release() }

// GetObj takes a pooled *T from the arena (zero-valued when fresh; otherwise
// in whatever state PutObj left it). Kernels use this for reusable scratch
// structs whose internal arrays grow monotonically, e.g. base-case hash
// tables.
func GetObj[T any](s *Scratch) *T {
	// Keyed by *T, not T: reflect.TypeFor[T] boxes a zero T into an
	// interface, which heap-allocates a copy of the whole struct on every
	// call (32 KiB for a page-sized T). The pointer type is free to name and
	// cannot collide with GetBuf's []T keys.
	if v, _ := s.listFor(reflect.TypeFor[*T]()).take(0, true).(*T); v != nil {
		return v
	}
	return new(T)
}

// PutObj returns an object taken with GetObj to the arena.
func PutObj[T any](s *Scratch, v *T) {
	s.listFor(reflect.TypeFor[*T]()).put(0, v)
}

// ceilCap rounds allocation capacities up to a power of two so recycled
// buffers converge onto a few size classes instead of growing by dribs.
func ceilCap(n int) int {
	if n <= 8 {
		return 8
	}
	return 1 << bits.Len(uint(n-1))
}

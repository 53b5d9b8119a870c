package dist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The tests drive the engines the way the sorting baselines do: a fill pass
// built from a per-record classifier bucketOf.

// fillFrom is the parallel engine's counting pass over bucketOf.
func fillFrom(bucketOf func(i int) int) func(lo, hi int, ids []uint16, row []int32) {
	return func(lo, hi int, ids []uint16, row []int32) {
		for j := lo; j < hi; j++ {
			b := bucketOf(j)
			ids[j-lo] = uint16(b)
			row[b]++
		}
	}
}

// serialFillFrom is the serial engines' counting pass over bucketOf.
func serialFillFrom[I uint8 | uint16](bucketOf func(i int) int) func(ids []I, counts []int32) {
	return func(ids []I, counts []int32) {
		for i := range ids {
			b := bucketOf(i)
			ids[i] = I(b)
			counts[b]++
		}
	}
}

// stable runs the parallel engine without a side array.
func stable[R any](src, dst []R, nB, l int, bucketOf func(i int) int) []int {
	return StableFilledInto(nil, src, dst, nil, nil, nB, l, nB, fillFrom(bucketOf), make([]int, nB+1))
}

// serial runs the serial engine with the narrowest id plane nB allows.
func serial[R any](src, dst []R, nB int, bucketOf func(i int) int) []int {
	if nB <= 256 {
		return SerialFilled8Into(nil, src, dst, nil, nil, nB, nB, serialFillFrom[uint8](bucketOf), make([]int, nB+1))
	}
	return SerialFilledInto(nil, src, dst, nil, nil, nB, nB, serialFillFrom[uint16](bucketOf), make([]int, nB+1))
}

func TestStableGroupsAndOrders(t *testing.T) {
	type rec struct {
		b   int
		seq int
	}
	for _, n := range []int{0, 1, 2, 100, 5000, 123457} {
		for _, nB := range []int{1, 2, 16, 300} {
			for _, l := range []int{1, 7, 512, 1 << 20} {
				rng := rand.New(rand.NewSource(int64(n*31 + nB*7 + l)))
				src := make([]rec, n)
				for i := range src {
					src[i] = rec{b: rng.Intn(nB), seq: i}
				}
				dst := make([]rec, n)
				starts := stable(src, dst, nB, l, func(i int) int { return src[i].b })

				if len(starts) != nB+1 {
					t.Fatalf("starts length %d want %d", len(starts), nB+1)
				}
				if starts[0] != 0 || starts[nB] != n {
					t.Fatalf("starts span [%d,%d], want [0,%d]", starts[0], starts[nB], n)
				}
				for b := 0; b < nB; b++ {
					prevSeq := -1
					for i := starts[b]; i < starts[b+1]; i++ {
						if dst[i].b != b {
							t.Fatalf("record %v in bucket %d", dst[i], b)
						}
						if dst[i].seq <= prevSeq {
							t.Fatalf("bucket %d unstable: seq %d after %d", b, dst[i].seq, prevSeq)
						}
						prevSeq = dst[i].seq
					}
				}
			}
		}
	}
}

func TestStableCountsMatch(t *testing.T) {
	f := func(raw []uint8, lSeed uint8) bool {
		n := len(raw)
		nB := 8
		l := 1 + int(lSeed)%64
		src := make([]int, n)
		for i, v := range raw {
			src[i] = int(v % uint8(nB))
		}
		dst := make([]int, n)
		starts := stable(src, dst, nB, l, func(i int) int { return src[i] })
		want := make([]int, nB)
		for _, b := range src {
			want[b]++
		}
		for b := 0; b < nB; b++ {
			if starts[b+1]-starts[b] != want[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNumSubarrays(t *testing.T) {
	cases := []struct{ n, l, want int }{
		{0, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := NumSubarrays(c.n, c.l); got != c.want {
			t.Fatalf("NumSubarrays(%d,%d)=%d want %d", c.n, c.l, got, c.want)
		}
	}
}

func TestStablePanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched dst length")
		}
	}()
	stable(make([]int, 4), make([]int, 3), 2, 2, func(int) int { return 0 })
}

func TestStableSingleBucket(t *testing.T) {
	src := []int{5, 4, 3, 2, 1}
	dst := make([]int, 5)
	starts := stable(src, dst, 1, 2, func(int) int { return 0 })
	if starts[1] != 5 {
		t.Fatalf("bucket size %d want 5", starts[1])
	}
	for i, v := range dst {
		if v != src[i] {
			t.Fatalf("single-bucket distribution must be the identity, got %v", dst)
		}
	}
}

func TestSerialMatchesStable(t *testing.T) {
	type rec struct {
		b   int
		seq int
	}
	for _, n := range []int{0, 1, 2, 100, 5000, 70000} {
		for _, nB := range []int{1, 2, 16, 700} {
			rng := rand.New(rand.NewSource(int64(n + nB)))
			src := make([]rec, n)
			for i := range src {
				src[i] = rec{b: rng.Intn(nB), seq: i}
			}
			d1 := make([]rec, n)
			d2 := make([]rec, n)
			s1 := stable(src, d1, nB, 512, func(i int) int { return src[i].b })
			s2 := serial(src, d2, nB, func(i int) int { return src[i].b })
			for b := 0; b <= nB; b++ {
				if s1[b] != s2[b] {
					t.Fatalf("starts differ at %d: %d vs %d", b, s1[b], s2[b])
				}
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					t.Fatalf("Serial and Stable disagree at %d (both must be stable)", i)
				}
			}
		}
	}
}

func TestSerialPoolReuseIsClean(t *testing.T) {
	// Back-to-back calls with different shapes must not leak state through
	// the pooled scratch.
	for trial := 0; trial < 50; trial++ {
		n := 10 + trial*7
		nB := 1 + trial%9
		src := make([]int, n)
		for i := range src {
			src[i] = (i * 31) % nB
		}
		dst := make([]int, n)
		starts := serial(src, dst, nB, func(i int) int { return src[i] })
		if starts[nB] != n {
			t.Fatalf("trial %d: total %d want %d", trial, starts[nB], n)
		}
		for b := 0; b < nB; b++ {
			for i := starts[b]; i < starts[b+1]; i++ {
				if dst[i] != b {
					t.Fatalf("trial %d: record %d in bucket %d", trial, dst[i], b)
				}
			}
		}
	}
}

func TestStableTooManyBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nB > 2^16")
		}
	}()
	stable(make([]int, 2), make([]int, 2), 1<<16+1, 1, func(int) int { return 0 })
}

package dist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Equivalence tests for the distribution engines: every engine — the
// parallel scatter and the serial one with both its 2-byte and byte-wide id
// planes, each with and without the hash side array — must produce output
// identical to a naive stable reference, across the edge shapes of the
// engine (single bucket, single subarray, one crowded bucket, maximal and
// empty buckets).

type erec struct {
	b   int
	seq int
}

// refDistribute is the obviously correct stable distribution: emit bucket
// by bucket in input order.
func refDistribute(src []erec, nB int) (dst []erec, starts []int) {
	dst = make([]erec, 0, len(src))
	starts = make([]int, nB+1)
	for b := 0; b < nB; b++ {
		starts[b] = len(dst)
		for _, r := range src {
			if r.b == b {
				dst = append(dst, r)
			}
		}
	}
	starts[nB] = len(dst)
	return dst, starts
}

// hashOf is the synthetic side payload the keyed variants must permute in
// lockstep with the records.
func hashOf(r erec) uint64 { return uint64(r.seq)*0x9e3779b97f4a7c15 + uint64(r.b) }

func checkAgainstRef(t *testing.T, label string, src, got []erec, hgot []uint64, gotStarts, wantStarts []int, want []erec) {
	t.Helper()
	if len(gotStarts) != len(wantStarts) {
		t.Fatalf("%s: starts length %d want %d", label, len(gotStarts), len(wantStarts))
	}
	for i := range wantStarts {
		if gotStarts[i] != wantStarts[i] {
			t.Fatalf("%s: starts[%d]=%d want %d", label, i, gotStarts[i], wantStarts[i])
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: dst[%d]=%v want %v", label, i, got[i], want[i])
		}
		if hgot != nil && hgot[i] != hashOf(want[i]) {
			t.Fatalf("%s: hash side array out of sync at %d: %d want %d", label, i, hgot[i], hashOf(want[i]))
		}
	}
}

// engine is one distribution engine driven over erec records, classified
// by their own bucket field.
type engine struct {
	name string
	run  func(src, dst []erec, hsrc, hdst []uint64, nB, l, hLive int) []int
}

// enginesFor lists every engine that accepts nB buckets.
func enginesFor(nB int) []engine {
	es := []engine{
		{"StableFilledInto", func(src, dst []erec, hsrc, hdst []uint64, nB, l, hLive int) []int {
			return StableFilledInto(nil, src, dst, hsrc, hdst, nB, l, hLive,
				fillFrom(func(i int) int { return src[i].b }), make([]int, nB+1))
		}},
		{"SerialFilledInto", func(src, dst []erec, hsrc, hdst []uint64, nB, _, hLive int) []int {
			return SerialFilledInto(nil, src, dst, hsrc, hdst, nB, hLive,
				serialFillFrom[uint16](func(i int) int { return src[i].b }), make([]int, nB+1))
		}},
	}
	if nB <= 256 {
		es = append(es, engine{"SerialFilled8Into", func(src, dst []erec, hsrc, hdst []uint64, nB, _, hLive int) []int {
			return SerialFilled8Into(nil, src, dst, hsrc, hdst, nB, hLive,
				serialFillFrom[uint8](func(i int) int { return src[i].b }), make([]int, nB+1))
		}})
	}
	return es
}

// runAllVariants distributes src through every engine, with and without
// the hash side array, and checks each against the reference.
func runAllVariants(t *testing.T, label string, src []erec, nB, l int) {
	t.Helper()
	n := len(src)
	want, wantStarts := refDistribute(src, nB)
	hsrc := make([]uint64, n)
	for i, r := range src {
		hsrc[i] = hashOf(r)
	}
	for _, e := range enginesFor(nB) {
		dst := make([]erec, n)
		starts := e.run(src, dst, nil, nil, nB, l, nB)
		checkAgainstRef(t, label+"/"+e.name, src, dst, nil, starts, wantStarts, want)

		dst, hdst := make([]erec, n), make([]uint64, n)
		starts = e.run(src, dst, hsrc, hdst, nB, l, nB)
		checkAgainstRef(t, label+"/"+e.name+"/keyed", src, dst, hdst, starts, wantStarts, want)
	}
}

// TestHLiveDeadSuffixUntouched pins the skew-adaptive scatter contract the
// semisort core relies on: records landing in buckets >= hLive (final heavy
// buckets) must not move their side-array values — the scatter may not even
// write those hdst positions. A sentinel pattern in hdst must survive within
// the dead region, in every engine and for both id-plane widths.
func TestHLiveDeadSuffixUntouched(t *testing.T) {
	const sentinel = 0xdeadbeefcafef00d
	for _, shape := range []struct{ n, nB, hLive, l int }{
		{6000, 600, 400, 128}, // 2-byte id plane
		{6000, 200, 150, 128}, // byte-wide id plane fits too
	} {
		n, nB, hLive := shape.n, shape.nB, shape.hLive
		src := makeSrc(n, nB, 17)
		hsrc := make([]uint64, n)
		for i, r := range src {
			hsrc[i] = hashOf(r)
		}
		for _, e := range enginesFor(nB) {
			hdst := make([]uint64, n)
			for i := range hdst {
				hdst[i] = sentinel
			}
			starts := e.run(src, make([]erec, n), hsrc, hdst, nB, shape.l, hLive)
			deadLo := starts[hLive]
			for p := 0; p < deadLo; p++ {
				if hdst[p] == sentinel {
					t.Fatalf("%s nB=%d: live hash at %d not written", e.name, nB, p)
				}
			}
			for p := deadLo; p < n; p++ {
				if hdst[p] != sentinel {
					t.Fatalf("%s nB=%d: dead-suffix hash at %d was written", e.name, nB, p)
				}
			}
		}
	}
}

func makeSrc(n, nB int, seed int64) []erec {
	rng := rand.New(rand.NewSource(seed))
	src := make([]erec, n)
	for i := range src {
		src[i] = erec{b: rng.Intn(nB), seq: i}
	}
	return src
}

func TestDistributeVariantsMatchReferenceEdgeShapes(t *testing.T) {
	cases := []struct {
		label string
		src   []erec
		nB, l int
	}{
		{"empty", nil, 4, 16},
		{"single-bucket-nB=1", makeSrc(1000, 1, 1), 1, 64},
		{"n<l-single-subarray", makeSrc(200, 16, 2), 16, 4096},
		{"all-one-bucket", func() []erec {
			src := makeSrc(3000, 1, 3)
			for i := range src {
				src[i].b = 7
			}
			return src
		}(), 16, 128},
		{"nB=MaxBuckets-sparse", func() []erec {
			src := makeSrc(2000, 4, 4)
			for i := range src {
				src[i].b = (src[i].seq * 31) % MaxBuckets
			}
			return src
		}(), MaxBuckets, 256},
		{"empty-buckets", func() []erec {
			src := makeSrc(2500, 3, 5)
			picks := []int{0, 150, 299}
			for i := range src {
				src[i].b = picks[src[i].b]
			}
			return src
		}(), 300, 128},
		{"byte-id-cache-nB=256", makeSrc(5000, 256, 6), 256, 512},
		{"word-id-cache-nB=257", makeSrc(5000, 257, 7), 257, 512},
		{"many-buckets-nB=1024", makeSrc(50000, 1024, 8), 1024, 4096},
		{"many-subarrays-l=1", makeSrc(700, 8, 9), 8, 1},
	}
	for _, c := range cases {
		runAllVariants(t, c.label, c.src, c.nB, c.l)
	}
}

func TestDistributeVariantsMatchReferenceRandom(t *testing.T) {
	f := func(raw []uint16, nbSeed, lSeed uint8) bool {
		nB := 1 + int(nbSeed)%512
		l := 1 + int(lSeed)*7
		src := make([]erec, len(raw))
		for i, v := range raw {
			src[i] = erec{b: int(v) % nB, seq: i}
		}
		want, wantStarts := refDistribute(src, nB)
		hsrc := make([]uint64, len(src))
		for i, r := range src {
			hsrc[i] = hashOf(r)
		}
		for _, e := range enginesFor(nB) {
			dst := make([]erec, len(src))
			hdst := make([]uint64, len(src))
			starts := e.run(src, dst, hsrc, hdst, nB, l, nB)
			for i := range wantStarts {
				if starts[i] != wantStarts[i] {
					return false
				}
			}
			for i := range want {
				if dst[i] != want[i] || hdst[i] != hashOf(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDistributeEquivalence drives the same equivalence from fuzzed bucket
// assignments (run with `go test -fuzz FuzzDistributeEquivalence` to
// explore; the seed corpus runs as a normal test).
func FuzzDistributeEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 250, 250}, uint8(4), uint8(3))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(1), uint8(0))
	f.Add([]byte{}, uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, nbSeed, lSeed uint8) {
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		nB := 1 + int(nbSeed)
		l := 1 + int(lSeed)
		src := make([]erec, len(raw))
		for i, v := range raw {
			src[i] = erec{b: int(v) % nB, seq: i}
		}
		runAllVariants(t, "fuzz", src, nB, l)
	})
}

// Package samplesort is the repository's analogue of the ParlayLib sample
// sort (PLSS in the paper, Table 2): a one-level parallel samplesort with
// over-sampled pivots, explicit equal buckets for duplicated pivots (the
// heavy-key optimization the paper notes PLSS performs), blocked stable
// distribution, and per-bucket sequential sorting in parallel. Like the
// paper's PLSS configuration, this is the faster unstable variant: ties may
// be reordered by the per-bucket quicksorts.
package samplesort

import (
	"repro/internal/dist"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/sampling"
	"repro/internal/seqsort"
)

// seqCutoff is the size below which sorting is purely sequential.
const seqCutoff = 1 << 14

// oversample is how many samples are drawn per pivot.
const oversample = 8

// Sort sorts a in place (ascending by less) using parallel samplesort.
func Sort[T any](a []T, less func(T, T) bool) {
	n := len(a)
	if n <= seqCutoff {
		seqsort.Quick3(a, less)
		return
	}

	pivots, isHeavy := choosePivots(a, less)
	m := len(pivots)
	// Conceptual buckets: 2m+1 — even ids are open ranges
	// (pivots[i-1], pivots[i]), odd id 2i+1 means "equal to pivots[i]".
	nB := 2*m + 1
	bucketOf := func(i int) int {
		x := a[i]
		lo := lowerBound(pivots, x, less)
		if lo < m && !less(x, pivots[lo]) {
			return 2*lo + 1 // x == pivots[lo]
		}
		return 2 * lo
	}
	tmp := make([]T, n)
	l := max(16384, n/2000)
	starts := dist.StableFilledInto(nil, a, tmp, nil, nil, nB, l, nB,
		func(lo, hi int, ids []uint16, row []int32) {
			for j := lo; j < hi; j++ {
				b := bucketOf(j)
				ids[j-lo] = uint16(b)
				row[b]++
			}
		}, make([]int, nB+1))
	parallel.Copy(a, tmp)

	// Sort the range buckets in parallel; equal buckets are already done
	// (every record in them has the same key), which is the PLSS-style
	// shortcut on heavily duplicated inputs.
	parallel.For(nB, 1, func(b int) {
		if b%2 == 1 && isHeavy[(b-1)/2] {
			return
		}
		lo, hi := starts[b], starts[b+1]
		if hi-lo > 1 {
			seqsort.Quick3(a[lo:hi], less)
		}
	})
}

// choosePivots draws an over-sample, sorts it, and returns the distinct
// pivots plus a flag per pivot marking duplicated (heavy) pivots whose
// equal-bucket needs no sorting. Non-duplicated pivots also get an equal
// bucket, but it is sorted anyway (cheap, keeps classification simple).
func choosePivots[T any](a []T, less func(T, T) bool) (pivots []T, isHeavy []bool) {
	n := len(a)
	k := numBuckets(n)
	s := make([]T, k*oversample)
	rng := hashutil.NewRNG(0x5a17e5)
	for i := range s {
		s[i] = a[rng.Intn(n)]
	}
	seqsort.Quick3(s, less)
	pivots = make([]T, 0, k-1)
	isHeavy = make([]bool, 0, k-1)
	for i := 1; i < k; i++ {
		p := s[i*oversample]
		if len(pivots) > 0 {
			last := pivots[len(pivots)-1]
			if !less(last, p) {
				// Duplicated pivot: the key is heavy; its equal bucket
				// will be skipped during sorting.
				isHeavy[len(isHeavy)-1] = true
				continue
			}
		}
		pivots = append(pivots, p)
		isHeavy = append(isHeavy, false)
	}
	return pivots, isHeavy
}

// numBuckets picks the bucket count: roughly one bucket per sequential
// cutoff's worth of records, capped at 1024 as in the paper's discussion of
// keeping counting structures cache-resident.
func numBuckets(n int) int {
	k := sampling.CeilPow2(n / (seqCutoff / 2))
	if k < 4 {
		k = 4
	}
	if k > 1024 {
		k = 1024
	}
	return k
}

// lowerBound returns the number of pivots strictly less than x.
func lowerBound[T any](pivots []T, x T, less func(T, T) bool) int {
	lo, hi := 0, len(pivots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(pivots[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Package radix is the repository's analogue of the ParlayLib integer sort
// (PLIS in the paper, Table 2): a stable, parallel, top-down MSD radix sort.
// Like all parallel integer sorts discussed in Section 4.2 it examines the
// most-significant digits first, distributing with the same blocked stable
// engine as the semisort core and recursing per bucket with the A/T role
// swap, so each record is copied a small constant number of times.
//
// Keys are exposed as byte digits (most-significant first) so any key width
// works — including the paper's 128-bit keys, which PLIS is the only
// integer-sort baseline to support.
package radix

import (
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/seqsort"
)

// Digits describes how to sort records of type T by a radix key.
type Digits[T any] struct {
	// At returns digit `level` of the key of x, level 0 being the most
	// significant byte.
	At func(x T, level int) uint8
	// Levels is the number of digits in a key.
	Levels int
	// Less compares full keys; it is used for small base cases (a stable
	// merge sort) and must order exactly like the digit sequence.
	Less func(x, y T) bool
}

// U64 returns Digits for records with a 64-bit key.
func U64[T any](key func(T) uint64) Digits[T] {
	return Digits[T]{
		At:     func(x T, level int) uint8 { return uint8(key(x) >> (56 - 8*level)) },
		Levels: 8,
		Less:   func(x, y T) bool { return key(x) < key(y) },
	}
}

// U32 returns Digits for records with a 32-bit key.
func U32[T any](key func(T) uint32) Digits[T] {
	return Digits[T]{
		At:     func(x T, level int) uint8 { return uint8(key(x) >> (24 - 8*level)) },
		Levels: 4,
		Less:   func(x, y T) bool { return key(x) < key(y) },
	}
}

// U128 returns Digits for records with a 128-bit key given as (hi, lo).
func U128[T any](key func(T) (hi, lo uint64)) Digits[T] {
	return Digits[T]{
		At: func(x T, level int) uint8 {
			hi, lo := key(x)
			if level < 8 {
				return uint8(hi >> (56 - 8*level))
			}
			return uint8(lo >> (56 - 8*(level-8)))
		},
		Levels: 16,
		Less: func(x, y T) bool {
			xh, xl := key(x)
			yh, yl := key(y)
			return xh < yh || (xh == yh && xl < yl)
		},
	}
}

// baseCutoff is the bucket size below which a sequential stable sort is
// used instead of another counting pass.
const baseCutoff = 1 << 12

// Sort sorts a in place, stably, by the radix key described by d.
func Sort[T any](a []T, d Digits[T]) {
	n := len(a)
	if n <= 1 {
		return
	}
	if n <= baseCutoff {
		tmp := make([]T, n)
		seqsort.MergeStable(a, tmp, d.Less)
		return
	}
	tmp := make([]T, n)
	rec(a, tmp, true, 0, d)
}

// rec distributes cur into other by the digit at `level` and recurses on
// the 256 buckets with the roles of the arrays swapped; curIsA tracks which
// side the caller-visible array is, exactly as in the semisort core.
func rec[T any](cur, other []T, curIsA bool, level int, d Digits[T]) {
	n := len(cur)
	if n == 0 {
		return
	}
	if level >= d.Levels {
		// All digits consumed: every record in this bucket has an equal
		// key; just surface the data to the A side.
		if !curIsA {
			copy(other, cur)
		}
		return
	}
	if n <= baseCutoff {
		seqsort.MergeStable(cur, other, d.Less)
		if !curIsA {
			copy(other, cur)
		}
		return
	}
	// Small buckets run their whole subtree sequentially: per-goroutine
	// overhead would dominate the counting passes otherwise.
	if n <= serialCutoff {
		starts := dist.SerialFilled8Into(nil, cur, other, nil, nil, 256, 256,
			func(ids []uint8, counts []int32) {
				for i, x := range cur {
					b := d.At(x, level)
					ids[i] = b
					counts[b]++
				}
			}, make([]int, 257))
		for b := 0; b < 256; b++ {
			lo, hi := starts[b], starts[b+1]
			if lo < hi {
				rec(other[lo:hi], cur[lo:hi], !curIsA, level+1, d)
			}
		}
		return
	}
	l := max(16384, n/2000)
	starts := dist.StableFilledInto(nil, cur, other, nil, nil, 256, l, 256,
		func(lo, hi int, ids []uint16, row []int32) {
			for j := lo; j < hi; j++ {
				b := d.At(cur[j], level)
				ids[j-lo] = uint16(b)
				row[b]++
			}
		}, make([]int, 257))
	parallel.For(256, 1, func(b int) {
		lo, hi := starts[b], starts[b+1]
		if lo == hi {
			return
		}
		rec(other[lo:hi], cur[lo:hi], !curIsA, level+1, d)
	})
}

// serialCutoff is the bucket size below which the recursion spawns no
// goroutines.
const serialCutoff = 1 << 16

package dist

import "repro/internal/parallel"

// This file is the absorbing form of the id-plane engines: the
// generalization of the Filled engines' hLive dead suffix that collect-reduce
// and histogram need. Where hLive only lets a bucket range skip the *hash*
// side-array traffic, an absorbed record skips the scatter entirely: the
// caller consumes it during its fill pass (collect-reduce combines the
// record's mapped value into a per-subarray accumulator right there) and
// marks it with the Absorbed sentinel instead of a bucket id. Absorbed
// records are not counted, get no destination, and are never moved — the
// engine scatters only the surviving records, stably, carrying their cached
// hashes alongside.
//
// Because absorbed records need no room, the destination is not a
// caller-preallocated mirror of src: the engine calls dest(kept) once the
// counting matrix has been prefixed — when the survivor count is exact —
// and the caller hands back right-sized (arena-pooled) slices. Under heavy
// skew almost everything is absorbed and the level's scatter buffer shrinks
// from O(n) to O(survivors), which is what keeps the collect family's
// footprint proportional to the work instead of the input.
//
// Everything else matches the Filled engines: the caller owns the fused
// counting pass, the engine prefixes the counting matrix and replays the
// cached id plane with the same exact-offset scatter.

// Absorbed is the sentinel id a fill pass writes for a record it consumed
// itself: the record is not counted and the scatter skips it. It aliases the
// top 2-byte id, so absorbing engines support at most MaxBuckets-1 buckets.
const Absorbed = ^uint16(0)

// StableAbsorbInto distributes the surviving records of src through a
// caller-owned id plane, skipping absorbed records (see StableFilledInto
// for the engine contract). fill(lo, hi, ids, row) must classify records
// [lo, hi) of src, writing ids[j-lo] in [0, nB) and incrementing row[id]
// once per kept record — or writing Absorbed and touching nothing for a
// record it consumed itself; it is invoked once per subarray (concurrently
// across subarrays), and sweeps records in index order, so per-subarray
// absorption is input-ordered.
//
// dest(kept) is called exactly once, after counting, with the total number
// of surviving records; it must return a record slice of length >= kept
// and, when hsrc is non-nil, a hash slice of the same length (nil
// otherwise). Kept records land stably in dst[0:kept] grouped by bucket
// (bucket j is dst[starts[j]:starts[j+1]]), each with its hash carried:
// hdst[p] receives hsrc[j] whenever dst[p] receives src[j] — absorbed
// records are hash-dead by construction, like the Filled engines' hLive
// suffix. src and hsrc are never written.
func StableAbsorbInto[R any](rt *parallel.Runtime, src []R, hsrc []uint64, nB, l int,
	fill func(lo, hi int, ids []uint16, row []int32), starts []int,
	dest func(kept int) ([]R, []uint64)) []int {
	n := len(src)
	checkAbsorbArgs(n, nB, len(starts), hsrc)
	if n == 0 {
		clear(starts)
		dest(0)
		return starts
	}
	if l < 1 {
		l = 1
	}
	rt = parallel.Or(rt)
	sc := rt.Scratch()
	nSub := NumSubarrays(n, l)

	idsBuf := parallel.GetBuf[uint16](sc, n)
	cBuf := parallel.GetBuf[int32](sc, nSub*nB)
	cBuf.Zero()
	ids, c := idsBuf.S, cBuf.S
	rt.For(nSub, 1, func(i int) {
		hi := min((i+1)*l, n)
		fill(i*l, hi, ids[i*l:hi], c[i*nB:(i+1)*nB])
	})

	prefixOffsets(rt, sc, nB, nSub, c, starts)
	dst, hdst := dest(starts[nB])
	checkAbsorbDest(starts[nB], len(dst), len(hdst), hsrc)

	keyed := hsrc != nil
	rt.For(nSub, 1, func(i int) {
		row := c[i*nB : (i+1)*nB]
		hi := min((i+1)*l, n)
		// Equal-length 0-based windows keep the per-record loop free of
		// bounds checks.
		srcW, idsW := src[i*l:hi], ids[i*l:hi:hi]
		if keyed {
			hsrcW := hsrc[i*l : hi : hi]
			for j := range srcW {
				b := idsW[j]
				if b == Absorbed {
					continue
				}
				p := row[b]
				dst[p] = srcW[j]
				hdst[p] = hsrcW[j]
				row[b] = p + 1
			}
		} else {
			for j := range srcW {
				b := idsW[j]
				if b == Absorbed {
					continue
				}
				dst[row[b]] = srcW[j]
				row[b]++
			}
		}
	})
	cBuf.Release()
	idsBuf.Release()
	return starts
}

// SerialAbsorbInto is the sequential single-subarray specialization of
// StableAbsorbInto (see SerialFilledInto): fill(ids, counts) classifies
// every record of src in one caller-owned pass, absorbed records write the
// sentinel and are not counted, and the engine prefixes, sizes the
// destination through dest, and replays on the calling goroutine.
func SerialAbsorbInto[R any](sc *parallel.Scratch, src []R, hsrc []uint64, nB int,
	fill func(ids []uint16, counts []int32), starts []int,
	dest func(kept int) ([]R, []uint64)) []int {
	n := len(src)
	checkAbsorbArgs(n, nB, len(starts), hsrc)
	if n == 0 {
		clear(starts)
		dest(0)
		return starts
	}
	if sc == nil {
		sc = parallel.Default().Scratch()
	}
	idsBuf := parallel.GetBuf[uint16](sc, n)
	countsBuf := parallel.GetBuf[int32](sc, nB)
	countsBuf.Zero()
	ids, counts := idsBuf.S, countsBuf.S
	fill(ids, counts)
	kept := serialPrefix(counts, starts)
	dst, hdst := dest(kept)
	checkAbsorbDest(kept, len(dst), len(hdst), hsrc)
	ids = ids[:n]
	if hsrc != nil {
		hsrc = hsrc[:n:n]
		for i := range ids {
			b := ids[i]
			if b == Absorbed {
				continue
			}
			p := counts[b]
			dst[p] = src[i]
			hdst[p] = hsrc[i]
			counts[b] = p + 1
		}
	} else {
		for i := range ids {
			b := ids[i]
			if b == Absorbed {
				continue
			}
			dst[counts[b]] = src[i]
			counts[b]++
		}
	}
	countsBuf.Release()
	idsBuf.Release()
	return starts
}

// checkAbsorbArgs validates the absorbing engines' input contract: the
// common distribution bounds plus the sentinel headroom and a matched hash
// plane.
func checkAbsorbArgs(n, nB, nStarts int, hsrc []uint64) {
	if n > MaxLen {
		panic("dist: input longer than 2^31-1 records")
	}
	if nB > int(Absorbed) {
		panic("dist: absorbing engines need nB <= 65535 (Absorbed sentinel)")
	}
	if nStarts != nB+1 {
		panic("dist: starts length must be nB+1")
	}
	if hsrc != nil && len(hsrc) != n {
		panic("dist: hash array must match src length")
	}
}

// checkAbsorbDest validates what dest returned against the survivor count.
func checkAbsorbDest(kept, nDst, nHDst int, hsrc []uint64) {
	if nDst < kept {
		panic("dist: dest returned a record slice shorter than the survivor count")
	}
	if hsrc != nil && nHDst < kept {
		panic("dist: dest returned a hash slice shorter than the survivor count")
	}
}

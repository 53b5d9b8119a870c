package dist

import (
	"math"

	"repro/internal/parallel"
)

// This file is the record-distribution half of the package: the paper's
// Blocked Distributing step (Section 3.2, Figure 2) — a stable, race-free
// redistribution of records to buckets via exact counting. The input is
// split into consecutive subarrays; a counting matrix C (one row per
// subarray, one column per bucket) is filled in parallel, turned into
// per-subarray write offsets X by a column-major prefix sum, and then
// records are scattered to disjoint destinations. No atomics are needed,
// and the output is stable: records of the same bucket keep their input
// order.
//
// The engine is shared by the semisort core, the samplesort baseline, and
// the stable radix-sort baseline. Callers supply the counting pass (fill),
// which classifies every record once and caches its bucket id in an id
// plane the engine replays during the scatter, so expensive classifiers are
// never paid twice. All transient state (the id plane, the counting matrix,
// the column totals) comes from the runtime's Scratch arena, so repeated
// calls are allocation-free in steady state, and the caller owns the starts
// array.
//
// Each shape has one engine: StableFilledInto (parallel), SerialFilledInto
// (serial, 2-byte ids), SerialFilled8Into (serial, 1-byte ids for nB <=
// 256), plus the absorb engines of absorb.go. Every engine can carry a
// per-record uint64 alongside each record (semisort's cached user hash) and
// permute it with the same cached ids and exact offsets, so deeper
// recursion levels never recompute it.

// MaxLen is the largest supported input length. Offsets are kept in 32-bit
// cells so the counting matrix stays compact (the paper sizes C and X to fit
// in last-level cache); this bounds inputs to 2^31-1 records, which covers
// the paper's largest experiments (10^9).
const MaxLen = math.MaxInt32

// MaxBuckets bounds nB so bucket ids fit the 2-byte id cache.
const MaxBuckets = 1 << 16

// NumSubarrays returns how many subarrays an input of length n is split
// into when each subarray holds l records.
func NumSubarrays(n, l int) int {
	if n <= 0 {
		return 0
	}
	return (n + l - 1) / l
}

// checkArgs validates the common contract of every distribution variant.
func checkArgs(n, nDst, nB, nStarts int) {
	if n > MaxLen {
		panic("dist: input longer than 2^31-1 records")
	}
	if nDst != n {
		panic("dist: src and dst length mismatch")
	}
	if nB > MaxBuckets {
		panic("dist: more than 2^16 buckets")
	}
	if nStarts != nB+1 {
		panic("dist: starts length must be nB+1")
	}
}

// StableFilledInto scatters src into dst, grouping records by bucket id, on
// the given runtime (nil selects the shared default). The caller supplies
// the counting pass: fill(lo, hi, ids, row) must classify records [lo, hi)
// of src, writing ids[j-lo] in [0, nB) and incrementing row[id] once per
// record; it is invoked once per subarray of l records (concurrently across
// subarrays). The engine prefixes the counts and replays the cached ids
// during the scatter, so the classifier runs exactly once per record by
// construction — this is how the semisort core fuses user hashing, the
// single heavy-table probe and light-id extraction into one sweep per
// level. nB is at most 65536; dst must have the same length as src and must
// not alias it.
//
// starts (length nB+1) receives the bucket boundaries: bucket j occupies
// dst[starts[j]:starts[j+1]], and records within a bucket preserve their
// src order.
//
// hsrc/hdst, when non-nil, are a per-record uint64 side array permuted in
// lockstep: hdst[p] receives hsrc[j] whenever dst[p] receives src[j]. The
// semisort core uses it to carry each record's cached user hash through
// every recursion level. hLive is the number of leading buckets whose side
// values are still alive: records landing in buckets >= hLive (semisort's
// heavy buckets, which are final and never re-read their hashes) skip the
// side-array traffic entirely. Pass nB to permute everything.
func StableFilledInto[R any](rt *parallel.Runtime, src, dst []R, hsrc, hdst []uint64, nB, l int, hLive int, fill func(lo, hi int, ids []uint16, row []int32), starts []int) []int {
	n := len(src)
	checkArgs(n, len(dst), nB, len(starts))
	keyed := hsrc != nil
	if keyed && (len(hsrc) != n || len(hdst) != n) {
		panic("dist: hash arrays must match src length")
	}
	if n == 0 {
		clear(starts)
		return starts
	}
	if l < 1 {
		l = 1
	}
	rt = parallel.Or(rt)
	sc := rt.Scratch()
	nSub := NumSubarrays(n, l)

	// Counting pass: C[i*nB+j] = #records of subarray i in bucket j, with
	// the per-record bucket id cached for the scatter pass.
	idsBuf := parallel.GetBuf[uint16](sc, n)
	cBuf := parallel.GetBuf[int32](sc, nSub*nB)
	cBuf.Zero()
	ids, c := idsBuf.S, cBuf.S
	rt.For(nSub, 1, func(i int) {
		hi := min((i+1)*l, n)
		fill(i*l, hi, ids[i*l:hi], c[i*nB:(i+1)*nB])
	})

	prefixOffsets(rt, sc, nB, nSub, c, starts)

	// Scatter pass: subarrays in parallel, sequential within a subarray so
	// the result is stable and every write destination is exclusive.
	if keyed {
		rt.For(nSub, 1, func(i int) {
			row := c[i*nB : (i+1)*nB]
			hi := min((i+1)*l, n)
			// Equal-length 0-based windows keep the per-record loop free of
			// bounds checks.
			srcW, hsrcW, idsW := src[i*l:hi], hsrc[i*l:hi:hi], ids[i*l:hi:hi]
			for j := range srcW {
				b := idsW[j]
				p := row[b]
				dst[p] = srcW[j]
				if int(b) < hLive {
					hdst[p] = hsrcW[j]
				}
				row[b] = p + 1
			}
		})
	} else {
		rt.For(nSub, 1, func(i int) {
			row := c[i*nB : (i+1)*nB]
			hi := min((i+1)*l, n)
			srcW, idsW := src[i*l:hi], ids[i*l:hi:hi]
			for j := range srcW {
				b := idsW[j]
				dst[row[b]] = srcW[j]
				row[b]++
			}
		})
	}
	cBuf.Release()
	idsBuf.Release()
	return starts
}

// prefixOffsets turns the counting matrix c into per-subarray write offsets
// in place and fills starts: bucket totals, exclusive scan across buckets,
// then per-bucket scan across subarrays.
func prefixOffsets(rt *parallel.Runtime, sc *parallel.Scratch, nB, nSub int, c []int32, starts []int) {
	totalsBuf := parallel.GetBuf[int32](sc, nB)
	totals := totalsBuf.S
	rt.For(nB, 64, func(j int) {
		var s int32
		for i := 0; i < nSub; i++ {
			s += c[i*nB+j]
		}
		totals[j] = s
	})
	sum := 0
	for j := 0; j < nB; j++ {
		starts[j] = sum
		sum += int(totals[j])
	}
	starts[nB] = sum
	rt.For(nB, 64, func(j int) {
		off := int32(starts[j])
		for i := 0; i < nSub; i++ {
			cnt := c[i*nB+j]
			c[i*nB+j] = off
			off += cnt
		}
	})
	totalsBuf.Release()
}

// SerialFilledInto is the sequential single-subarray form of
// StableFilledInto for cache-resident subproblems: fill(ids, counts)
// classifies every record of src in one caller-owned pass, writing ids[i]
// in [0, nB) and incrementing counts[id] once per record; the engine
// prefixes and replays. Same contract as StableFilledInto (stability,
// starts, the hsrc/hdst side array and its hLive dead suffix), but it
// spawns no goroutines. Recursive algorithms call it once per small bucket,
// thousands of times per sort, so the id plane and counters come from sc
// (nil selects the shared default arena) and starts is caller-owned. The id
// plane is 2 bytes per record.
func SerialFilledInto[R any](sc *parallel.Scratch, src, dst []R, hsrc, hdst []uint64, nB int, hLive int, fill func(ids []uint16, counts []int32), starts []int) []int {
	return serialFilled(sc, src, dst, hsrc, hdst, nB, hLive, fill, starts)
}

// SerialFilled8Into is SerialFilledInto with a byte-wide id plane for
// classifiers with nB <= 256 (the semisort base-case splitter's 256-way
// hash-window splits, the radix baseline's digit buckets), halving id-plane
// traffic.
func SerialFilled8Into[R any](sc *parallel.Scratch, src, dst []R, hsrc, hdst []uint64, nB int, hLive int, fill func(ids []uint8, counts []int32), starts []int) []int {
	if nB > 256 {
		panic("dist: SerialFilled8Into needs nB <= 256")
	}
	return serialFilled(sc, src, dst, hsrc, hdst, nB, hLive, fill, starts)
}

// serialFilled is the shared count-prefix-scatter body of the serial
// engines, generic over the id-plane cell so byte-sized bucket counts pay
// byte-sized id traffic.
func serialFilled[R any, I uint8 | uint16](sc *parallel.Scratch, src, dst []R, hsrc, hdst []uint64, nB int, hLive int, fill func(ids []I, counts []int32), starts []int) []int {
	n := len(src)
	checkArgs(n, len(dst), nB, len(starts))
	if hsrc != nil && (len(hsrc) != n || len(hdst) != n) {
		panic("dist: hash arrays must match src length")
	}
	if n == 0 {
		clear(starts)
		return starts
	}
	if sc == nil {
		sc = parallel.Default().Scratch()
	}
	idsBuf := parallel.GetBuf[I](sc, n)
	countsBuf := parallel.GetBuf[int32](sc, nB)
	countsBuf.Zero()
	ids, counts := idsBuf.S[:n], countsBuf.S // equal-length windows: no bounds checks per record
	fill(ids, counts)
	serialPrefix(counts, starts)
	if hsrc != nil {
		hsrc = hsrc[:n:n]
		for i := range ids {
			b := ids[i]
			p := counts[b]
			dst[p] = src[i]
			if int(b) < hLive {
				hdst[p] = hsrc[i]
			}
			counts[b] = p + 1
		}
	} else {
		for i := range ids {
			b := ids[i]
			dst[counts[b]] = src[i]
			counts[b]++
		}
	}
	countsBuf.Release()
	idsBuf.Release()
	return starts
}

// serialPrefix is the serial engines' prefix pass: counts arrives as the
// bucket histogram and leaves as write cursors, starts receives the bucket
// boundaries, and the total is returned.
func serialPrefix(counts []int32, starts []int) int {
	off := int32(0)
	for b, c := range counts {
		starts[b] = int(off)
		counts[b] = off
		off += c
	}
	starts[len(counts)] = int(off)
	return int(off)
}

// SweepBytes is the byte volume one blocked-distribution sweep writes, for
// the observability plane's bytes-moved accounting (obs.CtrBytesMoved):
// every scattered record plus one 8-byte hash-plane word per record whose
// cached hash is carried. The carried count is the driver's to derive from
// the level's prefix array — the scatter carries hashes only for buckets
// below hLive (light buckets; heavy buckets are final and their hashes are
// dead — see StableFilledInto's hLive contract), so a sorting sweep
// carries the light prefix and an absorbing sweep carries every survivor.
func SweepBytes(recBytes, scattered, hashCarried int64) int64 {
	return scattered*recBytes + hashCarried*8
}

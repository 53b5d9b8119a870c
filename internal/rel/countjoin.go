package rel

import (
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// JoinCount computes the per-key row counts of the inner equi-join of a and
// b without materializing a single joined row: one KV per key present in
// both relations, with Value = count_a(key) * count_b(key). It is the
// histogram of Join(a, b) keyed by the join key, and the reason a fused
// join -> histogram/top-k/count-distinct pipeline beats the unfused chain
// structurally — a zipfian join can emit orders of magnitude more rows than
// either input holds, and this op never writes one.
//
// It is the count kind (joinCount) of the one equi-join recursion (runJoin):
// the level plans, co-partitioned buckets and heavy broadcast are the
// join's, with every record-logging stage demoted to counting. Heavy
// records of both sides tick the per-(subarray, key) count matrix during
// the classify sweep and are never logged, resolved, or crossed; leaves run
// countBase, a count-only hash join (build a per-key counter over the
// smaller side, probe with the other, multiply).
//
// The user hash runs exactly once per record of either relation — or zero
// times for a side whose input plane carries cached hashes. Output order is
// deterministic for a fixed seed but unspecified (each level's heavy keys
// first, then bucket pairs by bucket id; within a leaf, the build side's
// first-occurrence order). Neither input is modified.
func JoinCount[R, S, K any](a []R, inA *core.Plane[K], b []S, inB *core.Plane[K],
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool,
	cfg core.Config) []collect.KV[K, int64] {
	return runJoin[R, S, K, collect.KV[K, int64]](a, b, keyA, keyB, hash, eq, nil, nil, joinCount, cfg, inA, inB, nil)
}

// cntScratch is the pooled count-join base table: open-addressing slots
// holding the key's first build-record index, the slot's cached hash, the
// two per-key occurrence counters, and the dirtied-slot list (insertion
// order = build-side first-occurrence order, which is the leaf's emission
// order) for O(used) reset.
type cntScratch struct {
	slots  []int32
	hashes []uint64
	nb     []int64
	np     []int64
	order  []uint64
	mask   uint64
	shift  uint
}

// get (re)shapes the pooled table for at least m power-of-two slots.
func (t *cntScratch) get(m int) {
	if len(t.slots) < m {
		t.slots = make([]int32, m)
		for i := range t.slots {
			t.slots[i] = -1
		}
		t.hashes = make([]uint64, m)
		t.nb = make([]int64, m)
		t.np = make([]int64, m)
	}
	t.mask = uint64(m - 1)
	t.shift = hashutil.SlotShift(m)
}

// reset clears the dirtied slots and their counters.
func (t *cntScratch) reset() {
	for _, i := range t.order {
		t.slots[i] = -1
		t.nb[i], t.np[i] = 0, 0
	}
	t.order = t.order[:0]
}

// countBase is the shared leaf body over a chosen (build, probe) direction:
// count the build side per key, add the probe side's hits, emit the products
// in build first-occurrence order. The cached hash planes are consumed; the
// user hash never runs here.
func countBase[X, Y, K any](sc *parallel.Scratch, build []X, hBuild []uint64, probe []Y, hProbe []uint64,
	keyX func(X) K, keyY func(Y) K, eq func(K, K) bool) *parallel.Buf[collect.KV[K, int64]] {
	scr := parallel.GetObj[cntScratch](sc)
	m := sampling.CeilPow2(2 * len(build))
	scr.get(m)
	mask, shift := scr.mask, scr.shift
	for i := range build {
		h := hBuild[i]
		var k K
		haveK := false
		s := hashutil.Slot(h, shift)
		for {
			si := scr.slots[s]
			if si < 0 {
				scr.slots[s] = int32(i)
				scr.hashes[s] = h
				scr.nb[s] = 1
				scr.order = append(scr.order, s)
				break
			}
			if scr.hashes[s] == h {
				if !haveK {
					k = keyX(build[i])
					haveK = true
				}
				if eq(keyX(build[si]), k) {
					scr.nb[s]++
					break
				}
			}
			s = (s + 1) & mask
		}
	}
	for i := range probe {
		h := hProbe[i]
		var k K
		haveK := false
		s := hashutil.Slot(h, shift)
		for {
			si := scr.slots[s]
			if si < 0 {
				break
			}
			if scr.hashes[s] == h {
				if !haveK {
					k = keyY(probe[i])
					haveK = true
				}
				if eq(keyX(build[si]), k) {
					scr.np[s]++
					break
				}
			}
			s = (s + 1) & mask
		}
	}
	matched := 0
	for _, s := range scr.order {
		if scr.np[s] > 0 {
			matched++
		}
	}
	var own *parallel.Buf[collect.KV[K, int64]]
	if matched > 0 {
		own = parallel.GetBuf[collect.KV[K, int64]](sc, matched)
		o := 0
		for _, s := range scr.order {
			if scr.np[s] > 0 {
				own.S[o] = collect.KV[K, int64]{Key: keyX(build[scr.slots[s]]), Value: scr.nb[s] * scr.np[s]}
				o++
			}
		}
	}
	scr.reset()
	parallel.PutObj(sc, scr)
	return own
}

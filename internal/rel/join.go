package rel

import (
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// joinKind selects which rows an equi-join emits.
type joinKind uint8

const (
	joinInner joinKind = iota // every matching (a, b) pair, via the join function
	joinSemi                  // a-records with at least one match in b
	joinAnti                  // a-records with no match in b
	joinCount                 // per-key count_a * count_b (JoinCount; T is collect.KV[K, int64])
)

// Join computes the hash-partitioned inner equi-join of a and b: one
// joinF(r, s) row for every pair with eq(keyA(r), keyB(s)). Both relations
// are classified against ONE sample and heavy table per recursion level
// (the level is planned over the larger side and adapted to the other via
// core.Driver.ForeignLevel), so bucket j of a and bucket j of b hold
// exactly the same key population and co-partitioned bucket pairs join in
// cache. Heavy keys join by broadcast: both sides' heavy records are
// absorbed during the classify sweep — their indices logged per subarray in
// input order, the records themselves never moved — and the cross product
// reads them in place. Leaves run a classic build-on-the-smaller-side hash
// join consuming the cached hash planes.
//
// The user hash runs exactly once per record of either relation per call;
// neither input is modified. Row order is deterministic for a fixed seed
// but unspecified (each level's heavy keys first — a-order crossed with
// b-order per key — then bucket pairs by bucket id).
func Join[R, S, K, T any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, joinF func(R, S) T, cfg core.Config) []T {
	return runJoin[R, S, K, T](a, b, keyA, keyB, hash, eq, joinF, nil, joinInner, cfg, nil, nil, nil)
}

// JoinPlane is the inner equi-join fused into a pipeline. inA/inB, when
// non-nil, supply the two sides' cached hash planes (that side's records
// are never re-hashed — its top level starts hashed). When out is non-nil
// the call emits the output's plane into it: the result rows' user hashes
// in an arena-leased buffer (heavy rows read the shared table's OrderHash,
// leaf rows their probe record's cached hash) plus the level-0 heavy keys
// for downstream adoption. Carried heavy keys of the inputs are NOT
// adopted — a join plans its own shared sample over the larger side.
func JoinPlane[R, S, K, T any](a []R, inA *core.Plane[K], b []S, inB *core.Plane[K],
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool,
	joinF func(R, S) T, out *core.Plane[K], cfg core.Config) []T {
	return runJoin[R, S, K, T](a, b, keyA, keyB, hash, eq, joinF, nil, joinInner, cfg, inA, inB, out)
}

// SemiJoin returns the records of a whose key appears in b — each a-record
// at most once, regardless of how many b-records match it. Order is
// deterministic for a fixed seed but unspecified. See Join for the
// partitioning scheme.
func SemiJoin[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	return runJoin[R, S, K, R](a, b, keyA, keyB, hash, eq, nil, identity[R], joinSemi, cfg, nil, nil, nil)
}

// SemiJoinPlane is SemiJoin fused into a pipeline: inA/inB, when non-nil,
// supply the two sides' cached hash planes, exactly as in JoinPlane. A
// semi-join emits a-records, not rows, so there is no output plane.
func SemiJoinPlane[R, S, K any](a []R, inA *core.Plane[K], b []S, inB *core.Plane[K],
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	return runJoin[R, S, K, R](a, b, keyA, keyB, hash, eq, nil, identity[R], joinSemi, cfg, inA, inB, nil)
}

// AntiJoin returns the records of a whose key does NOT appear in b. Order is
// deterministic for a fixed seed but unspecified. See Join for the
// partitioning scheme.
func AntiJoin[R, S, K any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool, cfg core.Config) []R {
	return runJoin[R, S, K, R](a, b, keyA, keyB, hash, eq, nil, identity[R], joinAnti, cfg, nil, nil, nil)
}

func identity[R any](r R) R { return r }

// runJoin is the shared body. fromA converts an a-record into an output row
// for the kinds that emit a-records (semi, anti: T is R and fromA is the
// identity); joinF is the inner join's row constructor; the count kind
// needs neither. inA/inB/plOut are the pipeline-fusion hooks (see
// JoinPlane); nil for the plain entry points.
func runJoin[R, S, K, T any](a []R, b []S, keyA func(R) K, keyB func(S) K,
	hash func(K) uint64, eq func(K, K) bool,
	joinF func(R, S) T, fromA func(R) T, kind joinKind, cfg core.Config,
	inA, inB, plOut *core.Plane[K]) []T {
	na, nb := len(a), len(b)
	if na == 0 || (nb == 0 && kind != joinAnti) {
		if kind == joinAnti && na > 0 { // empty b: nothing can match
			out := make([]T, na)
			for i, r := range a {
				out[i] = fromA(r)
			}
			return out
		}
		return nil
	}
	// Two drivers over one Config: same light-bucket geometry (so hash-bit
	// windows agree level for level, the ForeignLevel contract) and the same
	// runtime, hence one shared arena.
	dA := core.NewDriver(na, keyA, hash, eq, cfg)
	dB := core.NewDriver(nb, keyB, hash, eq, cfg)
	sc := dA.Scratch()
	j := parallel.GetObj[joiner[R, S, K, T]](sc)
	j.keyA, j.keyB, j.eq = keyA, keyB, dA.Eq()
	j.joinF, j.fromA, j.kind = joinF, fromA, kind
	j.dA, j.dB = dA, dB
	j.emit = plOut != nil
	j.carryKeys, j.carryHashes = nil, nil

	// Input planes stand in for the lazily filled top-level hash mirrors:
	// that side starts hashed and its records are never re-hashed.
	var hbA, hbB borrowedBuf[uint64]
	hashedA, hashedB := false, false
	if inA != nil && inA.Hashes != nil {
		hbA, hashedA = borrowedBuf[uint64]{S: inA.Hashes}, true
	} else {
		buf := parallel.LeaseBuf[uint64](sc, dA.Ledger(), na)
		hbA = borrowedBuf[uint64]{S: buf.S, owned: buf}
	}
	if inB != nil && inB.Hashes != nil {
		hbB, hashedB = borrowedBuf[uint64]{S: inB.Hashes}, true
	} else {
		buf := parallel.LeaseBuf[uint64](sc, dB.Ledger(), nb)
		hbB = borrowedBuf[uint64]{S: buf.S, owned: buf}
	}
	root := j.rec(a, hbA.S, b, hbB.S, hashedA, hashedB, 0, 0, hashutil.NewRNG(dA.Seed()))
	out, hout := core.Pack(dA.Runtime(), sc, root, j.emit)
	if j.emit {
		*plOut = core.Plane[K]{
			HeavyKeys:   j.carryKeys,
			HeavyHashes: j.carryHashes,
		}
		if hout != nil {
			plOut.Hashes, plOut.HBuf = hout.S, hout
		}
	}
	hbB.Release()
	hbA.Release()

	*j = joiner[R, S, K, T]{}
	parallel.PutObj(sc, j)
	dB.Release()
	dA.Release()
	return out
}

// joiner is the equi-join terminal op: the user closures plus one
// distribution driver per relation. Pooled per call. emit marks
// plane-emitting calls: every node's own chunk travels with aligned row
// hashes, and the top level's heavy keys are carried out for downstream
// adoption (carryKeys/carryHashes, captured before the table is pooled).
type joiner[R, S, K, T any] struct {
	keyA  func(R) K
	keyB  func(S) K
	eq    func(K, K) bool
	joinF func(R, S) T
	fromA func(R) T
	kind  joinKind
	dA    *core.Driver[R, K]
	dB    *core.Driver[S, K]

	emit        bool
	carryKeys   []K
	carryHashes []uint64
}

// rec joins one co-partitioned pair of buckets: plan the level over the
// larger side, classify both sides against the shared heavy table and hash
// window, join the heavy keys by broadcast, recurse on bucket pairs.
func (j *joiner[R, S, K, T]) rec(curA []R, hA []uint64, curB []S, hB []uint64,
	hashedA, hashedB bool, depth, bitDepth int, rng hashutil.RNG) *core.Node[T] {
	na, nb := len(curA), len(curB)
	if na == 0 || (nb == 0 && j.kind != joinAnti) {
		return nil
	}
	sc := j.dA.Scratch()
	if nb == 0 { // anti join: an empty b side matches nothing
		return j.emitAll(curA, hA, hashedA)
	}
	// Base once the pair is cache-resident — or once EITHER side is small
	// enough that a build-on-it hash join is cheaper than distributing the
	// big side (this also bounds adversarial shapes: a key that is huge on
	// one side only would otherwise ride every level to MaxDepth).
	alpha := j.dA.Alpha()
	if na+nb <= alpha || min(na, nb) <= alpha>>4 || depth >= j.dA.MaxDepth() {
		if !hashedA {
			j.dA.HashAll(curA, hA)
		}
		if !hashedB {
			j.dB.HashAll(curB, hB)
		}
		return j.base(curA, hA, curB, hB)
	}

	// One sampling round for both relations, over the larger side (a pure
	// function of the two lengths, so the plan is deterministic). The other
	// side classifies against the foreign view: same table, same collapse,
	// same window — no skip list, since its records were never sampled.
	var lvA, lvB core.Level[K]
	var planned *core.Level[K]
	if na >= nb {
		lvA = j.dA.PlanLevel(curA, hA, hashedA, true, bitDepth, &rng)
		lvB = j.dB.ForeignLevel(&lvA, nb)
		planned = &lvA
	} else {
		lvB = j.dB.PlanLevel(curB, hB, hashedB, true, bitDepth, &rng)
		lvA = j.dA.ForeignLevel(&lvB, na)
		planned = &lvB
	}
	if depth == 0 && j.emit {
		// The level-0 heavy keys ride the output plane for downstream
		// adoption; copied out before the table is pooled.
		j.carryKeys, j.carryHashes = planned.HeavyCarry()
	}
	frng := rng
	nH, nLight := lvA.NH, lvA.NLight

	// Heavy absorption state: the a side logs record indices for the kinds
	// that emit from a's heavy records (inner, semi, anti); the b side logs
	// only for the inner join — semi and anti need just a per-key existence
	// count, and the count kind needs only per-key totals on both sides.
	var aLog, bLog *sideLog
	var aSink, bSink func(sub, hid, idx int)
	if nH > 0 {
		aLog = getSideLog(sc, lvA.NSub, nH, j.kind != joinCount)
		bLog = getSideLog(sc, lvB.NSub, nH, j.kind == joinInner)
		aSink, bSink = aLog.countSink, bLog.countSink
		if j.kind != joinCount {
			aSink = aLog.sink
		}
		if j.kind == joinInner {
			bSink = bLog.sink
		}
	}

	// Blocked Distributing, both sides through the absorbing engines:
	// survivors land in per-side survivor-sized buffers with their hash
	// planes carried; heavy records stay where they are.
	var lightABuf *parallel.Buf[R]
	var hlABuf *parallel.Buf[uint64]
	destA := func(kept int) ([]R, []uint64) {
		lightABuf = parallel.GetBuf[R](sc, kept)
		hlABuf = parallel.GetBuf[uint64](sc, kept)
		return lightABuf.S, hlABuf.S
	}
	var lightBBuf *parallel.Buf[S]
	var hlBBuf *parallel.Buf[uint64]
	destB := func(kept int) ([]S, []uint64) {
		lightBBuf = parallel.GetBuf[S](sc, kept)
		hlBBuf = parallel.GetBuf[uint64](sc, kept)
		return lightBBuf.S, hlBBuf.S
	}
	startsABuf := parallel.GetBuf[int](sc, nLight+1)
	startsBBuf := parallel.GetBuf[int](sc, nLight+1)
	startsA := j.dA.AbsorbLevel(&lvA, curA, hA, hashedA, bitDepth, startsABuf.S, aSink, destA)
	startsB := j.dB.AbsorbLevel(&lvB, curB, hB, hashedB, bitDepth, startsBBuf.S, bSink, destB)
	planned.ReleaseSample()

	// Broadcast join of the heavy keys, reading both sides in place.
	nd := core.NewNode[T](sc)
	if nH > 0 {
		nd.Own, nd.Hown = j.emitHeavy(planned, aLog, bLog, curA, curB)
		bLog.release(sc)
		aLog.release(sc)
	}
	planned.ReleaseTable(sc)

	// Local Refining on co-partitioned bucket pairs. Window bits were
	// consumed identically on both sides, so bucket q of a can only match
	// bucket q of b.
	kids := nd.NewKids(sc, nLight)
	lightA, hlA := lightABuf.S, hlABuf.S
	lightB, hlB := lightBBuf.S, hlBBuf.S
	j.dA.ForBuckets(planned.Serial, nLight, func(q int) {
		loA, hiA := startsA[q], startsA[q+1]
		loB, hiB := startsB[q], startsB[q+1]
		if loA < hiA && (loB < hiB || j.kind == joinAnti) {
			kids[q] = j.rec(lightA[loA:hiA], hlA[loA:hiA], lightB[loB:hiB], hlB[loB:hiB],
				true, true, depth+1, lvA.NextBit, frng.Fork(uint64(q)))
		}
	})
	hlBBuf.Release()
	lightBBuf.Release()
	hlABuf.Release()
	lightABuf.Release()
	startsBBuf.Release()
	startsABuf.Release()
	return nd
}

// emitHeavy joins the level's heavy keys by broadcast: per key, a's
// absorbed records in input order against b's, both read in place through
// the resolved index lists. The output chunk is sized exactly and filled at
// precomputed per-key offsets, so the fill parallelizes over keys without
// affecting the row order. Plane-emitting calls also fill the aligned hash
// chunk: every row of heavy key h shares the table's OrderHash[h], so no
// record is ever re-hashed. The count kind crosses nothing: a heavy key
// emits the product of its two side totals. lv is the planned level (heavy
// table alive).
func (j *joiner[R, S, K, T]) emitHeavy(lv *core.Level[K], aLog, bLog *sideLog, curA []R, curB []S) (*parallel.Buf[T], *parallel.Buf[uint64]) {
	serial := lv.Serial
	sc := j.dA.Scratch()
	rt := j.dA.Runtime()
	nH := aLog.nH
	if j.kind == joinCount {
		// A heavy key's row count is the product of its two side totals;
		// keys missing from either side emit nothing.
		totA, totB := aLog.totals(sc), bLog.totals(sc)
		matched := 0
		for h := 0; h < nH; h++ {
			if totA.S[h] > 0 && totB.S[h] > 0 {
				matched++
			}
		}
		own := parallel.GetBuf[T](sc, matched)
		kvs := any(own.S).([]collect.KV[K, int64]) // T is KV[K, int64] for this kind
		o := 0
		for h := 0; h < nH; h++ {
			if totA.S[h] > 0 && totB.S[h] > 0 {
				kvs[o] = collect.KV[K, int64]{Key: lv.HeavyKey(h), Value: int64(totA.S[h]) * int64(totB.S[h])}
				o++
			}
		}
		totB.Release()
		totA.Release()
		return own, nil
	}
	idxA, stA := aLog.resolve(rt, sc)
	ia, sa := idxA.S, stA.S
	offsBuf := parallel.GetBuf[int](sc, nH+1)
	offs := offsBuf.S
	var own *parallel.Buf[T]
	var hown *parallel.Buf[uint64]
	var hw []uint64
	if j.kind == joinInner {
		idxB, stB := bLog.resolve(rt, sc)
		ib, sb := idxB.S, stB.S
		total := 0
		for h := 0; h < nH; h++ {
			offs[h] = total
			total += int(sa[h+1]-sa[h]) * int(sb[h+1]-sb[h])
		}
		offs[nH] = total
		own = parallel.GetBuf[T](sc, total)
		if j.emit {
			hown = parallel.GetBuf[uint64](sc, total)
			hw = hown.S
		}
		out := own.S
		emit := func(h int) {
			o := offs[h]
			if hw != nil {
				hh := lv.HeavyHash(h)
				for i := o; i < offs[h+1]; i++ {
					hw[i] = hh
				}
			}
			bs := ib[sb[h]:sb[h+1]]
			// The broadcast cross product is the join's only loop unbounded
			// in the INPUT size — |a_k| * |b_k| rows for heavy key k can
			// dwarf n — so it checks for cancellation once per a-record
			// (every |b_k| rows), the one op-level checkpoint the driver's
			// per-chunk checks cannot provide. The hoisted flag keeps the
			// no-context path at one predicted-false branch per a-record.
			cancelable := j.dA.Cancelable()
			for _, ra := range ia[sa[h]:sa[h+1]] {
				if cancelable {
					j.dA.CheckCancel()
				}
				rec := curA[ra]
				for _, rb := range bs {
					out[o] = j.joinF(rec, curB[rb])
					o++
				}
			}
		}
		if serial {
			for h := 0; h < nH; h++ {
				emit(h)
			}
		} else {
			rt.For(nH, 1, emit)
		}
		stB.Release()
		idxB.Release()
	} else {
		// Semi/anti: a heavy key's a-records are emitted wholesale or not
		// at all, decided by b's existence count.
		tot := bLog.totals(sc)
		total := 0
		for h := 0; h < nH; h++ {
			offs[h] = total
			if (tot.S[h] > 0) == (j.kind == joinSemi) {
				total += int(sa[h+1] - sa[h])
			}
		}
		offs[nH] = total
		own = parallel.GetBuf[T](sc, total)
		if j.emit {
			hown = parallel.GetBuf[uint64](sc, total)
			hw = hown.S
		}
		out := own.S
		emit := func(h int) {
			if (tot.S[h] > 0) != (j.kind == joinSemi) {
				return
			}
			o := offs[h]
			if hw != nil {
				hh := lv.HeavyHash(h)
				for i := o; i < offs[h+1]; i++ {
					hw[i] = hh
				}
			}
			for _, ra := range ia[sa[h]:sa[h+1]] {
				out[o] = j.fromA(curA[ra])
				o++
			}
		}
		if serial {
			for h := 0; h < nH; h++ {
				emit(h)
			}
		} else {
			rt.For(nH, 1, emit)
		}
		tot.Release()
	}
	offsBuf.Release()
	stA.Release()
	idxA.Release()
	return own, hown
}

// logPageSize is the fixed stride of one heavy-log page, in entries (32 KiB
// pages: big enough that page turnover is rare, small enough that a lone
// heavy record in a subarray does not pin megabytes).
const logPageSize = 1 << 12

// logPage is one fixed-stride heavy-log page. It is a pooled value type
// with its own arena free list: every lease has the same shape, so pages
// recycle perfectly — unlike the previous grow-by-append arena slices,
// whose data-dependent doubling churned the shared []uint64 size classes
// and kept zipfian joins at O(subarrays) steady-state allocations.
type logPage struct {
	e [logPageSize]uint64
	n int // entries filled
}

// logChain is one subarray's heavy log: a list of fixed-stride pages in
// append order. Pooled; the pages slice only grows across reuses.
type logChain struct {
	pages []*logPage
}

// sideLog is one relation's heavy absorption state for a level: a
// per-(subarray, key) count matrix, plus — when the op needs the records
// themselves — per-subarray append-only logs of (key id, record index)
// written in input order by the absorb sink onto pooled fixed-stride pages.
// resolve turns the logs into per-key contiguous index lists (input order
// across subarrays) without ever moving a record.
type sideLog struct {
	sc   *parallel.Scratch
	nH   int
	cnt  *parallel.Buf[int32]
	logs *parallel.Buf[*logChain] // nil for count-only sides
}

// getSideLog takes a level's absorption state from the arena. indices
// selects whether record indices are logged (false: counts only).
func getSideLog(sc *parallel.Scratch, nSub, nH int, indices bool) *sideLog {
	l := parallel.GetObj[sideLog](sc)
	l.sc = sc
	l.nH = nH
	l.cnt = parallel.GetBuf[int32](sc, nSub*nH)
	l.cnt.Zero()
	l.logs = nil
	if indices {
		l.logs = parallel.GetBuf[*logChain](sc, nSub)
		l.logs.Zero()
	}
	return l
}

// sink is the index-logging absorb sink: one subarray's entries are
// appended by exactly one fill pass, in input order, so the log needs no
// synchronization. Chains and pages are taken lazily so subarrays without
// heavy records cost nothing.
func (l *sideLog) sink(sub, hid, idx int) {
	c := l.logs.S[sub]
	if c == nil {
		c = parallel.GetObj[logChain](l.sc)
		l.logs.S[sub] = c
	}
	var pg *logPage
	if k := len(c.pages); k > 0 {
		pg = c.pages[k-1]
	}
	if pg == nil || pg.n == logPageSize {
		pg = parallel.GetObj[logPage](l.sc)
		pg.n = 0
		c.pages = append(c.pages, pg)
	}
	pg.e[pg.n] = uint64(hid)<<32 | uint64(idx)
	pg.n++
	l.cnt.S[sub*l.nH+hid]++
}

// countSink is the existence-only absorb sink (semi and anti joins' b side).
func (l *sideLog) countSink(sub, hid, idx int) {
	l.cnt.S[sub*l.nH+hid]++
}

// resolve scatters the logs into per-key contiguous index lists: key h's
// record indices are idx[starts[h]:starts[h+1]], in input order (subarrays
// outer, log order inner). The caller releases both buffers. The count
// matrix is consumed (rewritten into scatter offsets).
func (l *sideLog) resolve(rt *parallel.Runtime, sc *parallel.Scratch) (idx *parallel.Buf[int32], starts *parallel.Buf[int32]) {
	nSub := len(l.cnt.S) / l.nH
	cnt := l.cnt.S
	starts = parallel.GetBuf[int32](sc, l.nH+1)
	run := int32(0)
	for h := 0; h < l.nH; h++ {
		starts.S[h] = run
		for sub := 0; sub < nSub; sub++ {
			c := cnt[sub*l.nH+h]
			cnt[sub*l.nH+h] = run
			run += c
		}
	}
	starts.S[l.nH] = run
	idx = parallel.GetBuf[int32](sc, int(run))
	out := idx.S
	rt.For(nSub, 1, func(sub int) {
		c := l.logs.S[sub]
		if c == nil {
			return
		}
		row := cnt[sub*l.nH : (sub+1)*l.nH]
		for _, pg := range c.pages {
			for _, e := range pg.e[:pg.n] {
				h := e >> 32
				out[row[h]] = int32(uint32(e))
				row[h]++
			}
		}
	})
	return idx, starts
}

// totals folds the count matrix into per-key totals (the count-only side's
// terminal form). The caller releases the buffer.
func (l *sideLog) totals(sc *parallel.Scratch) *parallel.Buf[int32] {
	nSub := len(l.cnt.S) / l.nH
	tot := parallel.GetBuf[int32](sc, l.nH)
	tot.Zero()
	for sub := 0; sub < nSub; sub++ {
		row := l.cnt.S[sub*l.nH : (sub+1)*l.nH]
		for h, c := range row {
			tot.S[h] += c
		}
	}
	return tot
}

// release returns the level's absorption state to the arena: every page and
// chain goes back to its own free list, so a steady-state join leases the
// same pages level after level.
func (l *sideLog) release(sc *parallel.Scratch) {
	if l.logs != nil {
		for i, c := range l.logs.S {
			if c != nil {
				for k, pg := range c.pages {
					parallel.PutObj(sc, pg)
					c.pages[k] = nil
				}
				c.pages = c.pages[:0]
				parallel.PutObj(sc, c)
				l.logs.S[i] = nil
			}
		}
		l.logs.Release()
	}
	l.cnt.Release()
	*l = sideLog{}
	parallel.PutObj(sc, l)
}

// emitAll emits every a-record (anti join against an empty b side). A
// plane-emitting call copies the cached hashes alongside — or computes them
// here for a top-level unhashed side (still exactly once per record: these
// records never met a classify sweep).
func (j *joiner[R, S, K, T]) emitAll(curA []R, hA []uint64, hashedA bool) *core.Node[T] {
	sc := j.dA.Scratch()
	own := parallel.GetBuf[T](sc, len(curA))
	for i, r := range curA {
		own.S[i] = j.fromA(r)
	}
	nd := core.NewNode[T](sc)
	nd.Own = own
	if j.emit {
		hown := parallel.GetBuf[uint64](sc, len(curA))
		if hashedA {
			copy(hown.S, hA[:len(curA)])
		} else {
			j.dA.HashAll(curA, hown.S)
		}
		nd.Hown = hown
	}
	return nd
}

// joinScratch is the pooled base-case build table: open-addressing slots
// holding each key's chain head/tail (indices into the build relation), the
// slot's cached hash, per-build-record chain links in input order, and the
// dirtied-slot list for O(used) reset.
type joinScratch struct {
	head   []int32
	tail   []int32
	hashes []uint64
	next   []int32
	order  []uint64
	// mask is the live table's slot mask and shift its slot-index shift
	// (see slotIndex). The pooled arrays only grow, so a smaller leaf
	// reusing a bigger leaf's arrays must derive slots from ITS m, not the
	// array length — build and probe both read these fields.
	mask  uint64
	shift uint
}

// get (re)shapes the table for m power-of-two slots and n build records.
func (t *joinScratch) get(m, n int) {
	if len(t.head) < m {
		t.head = make([]int32, m)
		for i := range t.head {
			t.head[i] = -1
		}
		t.tail = make([]int32, m)
		t.hashes = make([]uint64, m)
	}
	t.mask = uint64(m - 1)
	t.shift = hashutil.SlotShift(m)
	if cap(t.next) < n {
		t.next = make([]int32, n)
	}
	t.next = t.next[:n]
}

// reset clears the dirtied slots.
func (t *joinScratch) reset() {
	for _, i := range t.order {
		t.head[i] = -1
	}
	t.order = t.order[:0]
}

// base runs baseImpl under the stats plane's leaf accounting (both sides
// of the pair count as leaf records; branch-on-nil when stats are
// disabled).
func (j *joiner[R, S, K, T]) base(curA []R, hA []uint64, curB []S, hB []uint64) *core.Node[T] {
	if !j.dA.StatsArmed() {
		return j.baseImpl(curA, hA, curB, hB)
	}
	t0 := time.Now()
	nd := j.baseImpl(curA, hA, curB, hB)
	j.dA.StatLeaf(len(curA)+len(curB), time.Since(t0).Nanoseconds())
	return nd
}

// baseImpl joins one cache-resident bucket pair with a classic hash join
// consuming the cached hash planes: build a chained table over one side in
// input order, probe with the other in input order. The inner join builds
// on the smaller side (ties to b); semi and anti always build on b (their
// probe side must be a, whose records they emit). When the probe side is
// large — the min-side cutoff fires long before the pair is cache-resident
// — probing parallelizes over contiguous blocks, each emitting into its own
// chunk, packed in block order.
func (j *joiner[R, S, K, T]) baseImpl(curA []R, hA []uint64, curB []S, hB []uint64) *core.Node[T] {
	na, nb := len(curA), len(curB)
	sc := j.dA.Scratch()
	if j.kind == joinCount {
		// The count leaf builds a per-key counter over the smaller side (a
		// pure function of the two lengths) and probes serially: probing is
		// a read-mostly counting sweep.
		var own *parallel.Buf[collect.KV[K, int64]]
		if na <= nb {
			own = countBase(sc, curA, hA, curB, hB, j.keyA, j.keyB, j.eq)
		} else {
			own = countBase(sc, curB, hB, curA, hA, j.keyB, j.keyA, j.eq)
		}
		nd := core.NewNode[T](sc)
		nd.Own = any(own).(*parallel.Buf[T]) // T is KV[K, int64]; own may be nil
		return nd
	}
	// probeB: build on a, probe with b — rows come out in (b-probe,
	// a-chain) order, a different but equally deterministic order, since
	// the direction is a pure function of the two lengths.
	probeB := j.kind == joinInner && na < nb
	var scr *joinScratch
	nProbe := na
	if probeB {
		scr = j.buildA(curA, hA)
		nProbe = nb
	} else {
		scr = j.buildB(curB, hB)
	}
	var nd *core.Node[T]
	if nProbe <= core.SerialCutoff {
		// The common leaf: one serial probe into one chunk, closure-free
		// (a per-leaf closure would dominate steady-state allocations). The
		// chunk is leased at the probe-side length — a bound for semi and
		// anti, the usual size of an inner join's light rows — so the arena
		// hands it a buffer that fits rather than one it must regrow.
		own := parallel.GetBuf[T](sc, nProbe)
		var hown *parallel.Buf[uint64]
		if j.emit {
			hown = parallel.GetBuf[uint64](sc, nProbe)
		}
		if probeB {
			j.probeWithB(scr, curA, curB, hB, 0, nProbe, own, hown)
		} else {
			j.probeWithA(scr, curA, hA, curB, 0, nProbe, own, hown)
		}
		nd = core.NewNode[T](sc)
		nd.Own = own
		nd.Hown = hown
	} else {
		// A large probe side (the min-side cutoff fired): parallel blocks,
		// each emitting into its own chunk child, packed in block order —
		// the blocks partition is a pure function of n, so the row order is
		// scheduling-independent.
		rt := j.dA.Runtime()
		nBlocks := min(4*parallel.Workers(), (nProbe+core.SerialCutoff-1)/core.SerialCutoff)
		nd = core.NewNode[T](sc)
		kids := nd.NewKids(sc, nBlocks)
		rt.Blocks(nProbe, nBlocks, func(b, lo, hi int) {
			own := parallel.GetBuf[T](sc, hi-lo)
			var hown *parallel.Buf[uint64]
			if j.emit {
				hown = parallel.GetBuf[uint64](sc, hi-lo)
			}
			if probeB {
				j.probeWithB(scr, curA, curB, hB, lo, hi, own, hown)
			} else {
				j.probeWithA(scr, curA, hA, curB, lo, hi, own, hown)
			}
			kid := core.NewNode[T](sc)
			kid.Own = own
			kid.Hown = hown
			kids[b] = kid
		})
	}
	scr.reset()
	parallel.PutObj(sc, scr)
	return nd
}

// buildB chains the b relation into a pooled table in input order.
func (j *joiner[R, S, K, T]) buildB(curB []S, hB []uint64) *joinScratch {
	nb := len(curB)
	scr := parallel.GetObj[joinScratch](j.dA.Scratch())
	m := sampling.CeilPow2(2 * nb)
	scr.get(m, nb)
	mask, shift := scr.mask, scr.shift
	for i := 0; i < nb; i++ {
		h := hB[i]
		var k K
		haveK := false
		s := hashutil.Slot(h, shift)
		for {
			hd := scr.head[s]
			if hd < 0 {
				scr.head[s] = int32(i)
				scr.tail[s] = int32(i)
				scr.hashes[s] = h
				scr.next[i] = -1
				scr.order = append(scr.order, s)
				break
			}
			if scr.hashes[s] == h {
				if !haveK {
					k = j.keyB(curB[i])
					haveK = true
				}
				if j.eq(j.keyB(curB[hd]), k) {
					scr.next[scr.tail[s]] = int32(i)
					scr.tail[s] = int32(i)
					scr.next[i] = -1
					break
				}
			}
			s = (s + 1) & mask
		}
	}
	return scr
}

// buildA is buildB over the a relation (inner join, a smaller).
func (j *joiner[R, S, K, T]) buildA(curA []R, hA []uint64) *joinScratch {
	na := len(curA)
	scr := parallel.GetObj[joinScratch](j.dA.Scratch())
	m := sampling.CeilPow2(2 * na)
	scr.get(m, na)
	mask, shift := scr.mask, scr.shift
	for i := 0; i < na; i++ {
		h := hA[i]
		var k K
		haveK := false
		s := hashutil.Slot(h, shift)
		for {
			hd := scr.head[s]
			if hd < 0 {
				scr.head[s] = int32(i)
				scr.tail[s] = int32(i)
				scr.hashes[s] = h
				scr.next[i] = -1
				scr.order = append(scr.order, s)
				break
			}
			if scr.hashes[s] == h {
				if !haveK {
					k = j.keyA(curA[i])
					haveK = true
				}
				if j.eq(j.keyA(curA[hd]), k) {
					scr.next[scr.tail[s]] = int32(i)
					scr.tail[s] = int32(i)
					scr.next[i] = -1
					break
				}
			}
			s = (s + 1) & mask
		}
	}
	return scr
}

// probeWithA probes a-records [lo, hi) against a table built over b,
// emitting per the join kind in a-input order into the chunk own. hown,
// when non-nil, receives each emitted row's key hash (the probe record's
// cached hash) in lockstep. Both chunks grow through the arena (growRow).
func (j *joiner[R, S, K, T]) probeWithA(scr *joinScratch, curA []R, hA []uint64, curB []S, lo, hi int, own *parallel.Buf[T], hown *parallel.Buf[uint64]) {
	mask, shift := scr.mask, scr.shift
	cancelable := j.dA.Cancelable()
	out := own.S[:0]
	var hout []uint64
	if hown != nil {
		hout = hown.S[:0]
	}
	for i := lo; i < hi; i++ {
		if cancelable && (i-lo)&1023 == 0 {
			j.dA.CheckCancel() // amortized: leaf probes between driver chunk checks
		}
		h := hA[i]
		var k K
		haveK := false
		matched := false
		s := hashutil.Slot(h, shift)
		for {
			hd := scr.head[s]
			if hd < 0 {
				break
			}
			if scr.hashes[s] == h {
				if !haveK {
					k = j.keyA(curA[i])
					haveK = true
				}
				if j.eq(j.keyB(curB[hd]), k) {
					matched = true
					if j.kind == joinInner {
						for bi := hd; bi >= 0; bi = scr.next[bi] {
							if len(out) == cap(out) {
								out = growRow(own, out)
							}
							out = append(out, j.joinF(curA[i], curB[bi]))
							if hown != nil {
								if len(hout) == cap(hout) {
									hout = growRow(hown, hout)
								}
								hout = append(hout, h)
							}
						}
					}
					break
				}
			}
			s = (s + 1) & mask
		}
		if (j.kind == joinSemi && matched) || (j.kind == joinAnti && !matched) {
			if len(out) == cap(out) {
				out = growRow(own, out)
			}
			out = append(out, j.fromA(curA[i]))
			if hown != nil {
				if len(hout) == cap(hout) {
					hout = growRow(hown, hout)
				}
				hout = append(hout, h)
			}
		}
	}
	own.S = out
	if hown != nil {
		hown.S = hout
	}
}

// probeWithB probes b-records [lo, hi) against a table built over a (inner
// join only), emitting pairs in (b-probe, a-chain) order. own and hown as
// in probeWithA.
func (j *joiner[R, S, K, T]) probeWithB(scr *joinScratch, curA []R, curB []S, hB []uint64, lo, hi int, own *parallel.Buf[T], hown *parallel.Buf[uint64]) {
	mask, shift := scr.mask, scr.shift
	cancelable := j.dA.Cancelable()
	out := own.S[:0]
	var hout []uint64
	if hown != nil {
		hout = hown.S[:0]
	}
	for i := lo; i < hi; i++ {
		if cancelable && (i-lo)&1023 == 0 {
			j.dA.CheckCancel()
		}
		h := hB[i]
		var k K
		haveK := false
		s := hashutil.Slot(h, shift)
		for {
			hd := scr.head[s]
			if hd < 0 {
				break
			}
			if scr.hashes[s] == h {
				if !haveK {
					k = j.keyB(curB[i])
					haveK = true
				}
				if j.eq(j.keyA(curA[hd]), k) {
					for ai := hd; ai >= 0; ai = scr.next[ai] {
						if len(out) == cap(out) {
							out = growRow(own, out)
						}
						out = append(out, j.joinF(curA[ai], curB[i]))
						if hown != nil {
							if len(hout) == cap(hout) {
								hout = growRow(hown, hout)
							}
							hout = append(hout, h)
						}
					}
					break
				}
			}
			s = (s + 1) & mask
		}
	}
	own.S = out
	if hown != nil {
		hown.S = hout
	}
}

// growRow hands a full leaf chunk back to its lease and returns it regrown
// through the arena (Buf.Grow): an append-driven reallocation would drop
// the outgrown buffer and allocate afresh on every call whose rows outrun
// the lease.
func growRow[T any](b *parallel.Buf[T], s []T) []T {
	b.S = s
	b.Grow(1)
	return b.S
}

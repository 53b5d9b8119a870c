package main

import (
	"fmt"
	"slices"

	semisort "repro"
)

// Reference answers and output checks. References are computed once in
// set-up with plain Go maps; the checks run after each timed call, outside
// the timed region, and return an error naming the first violated
// property.

// bitset is a fixed-size set of record indices.
type bitset []uint64

func newBitset(n int) bitset       { return make(bitset, (n+63)/64) }
func (b bitset) has(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear()            { clear(b) }

// sampleKeys is how many input keys the per-key spot checks cover.
const sampleKeys = 4096

// keyRef is the reference for one sampled key.
type keyRef struct {
	count int64
	sumV  uint64 // sum of the key's record indices
}

// ref holds the reference answers for one relation.
type ref[K comparable] struct {
	n        int
	distinct int
	first    bitset // index i is set when record i is its key's first occurrence
	sumV     uint64 // sum of all record indices
	fpAll    uint64 // fingerprint of all records
	fpFirst  uint64 // fingerprint of the first occurrences
	sample   map[K]keyRef
	top      []int64        // the top-10 counts, descending
	topKeys  map[K]int64    // every key whose count reaches top[9]
	counts   map[K]int32    // full per-key counts; dropped after set-up
	seenKeys map[K]struct{} // scratch for the top-k key checks
}

// recFP is a record's fingerprint. The check of a permutation or subset
// compares the sum of its records' fingerprints with the reference sum, so
// an altered, lost or duplicated record shows without a random access per
// record.
func recFP(r rec) uint64 { return mix(r.Key ^ mix(r.Value)) }

// srecFP is recFP for string records (FNV-1a over the key bytes).
func srecFP(r srec) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(r.K); i++ {
		h = (h ^ uint64(r.K[i])) * 1099511628211
	}
	return mix(h ^ mix(r.V))
}

// buildRef computes the reference answers of a relation of n records
// whose i-th key is key(i) and fingerprint fp(i). It keeps the full count
// map; call dropCounts once every derived reference has been taken.
func buildRef[K comparable](n int, key func(int) K, fp func(int) uint64) *ref[K] {
	r := &ref[K]{n: n, first: newBitset(n), counts: make(map[K]int32, n/2)}
	for i := 0; i < n; i++ {
		k := key(i)
		c := r.counts[k]
		f := fp(i)
		if c == 0 {
			r.first.set(uint64(i))
			r.fpFirst += f
		}
		r.counts[k] = c + 1
		r.sumV += uint64(i)
		r.fpAll += f
	}
	r.distinct = len(r.counts)

	stride := max(n/sampleKeys, 1)
	r.sample = make(map[K]keyRef, sampleKeys)
	for i := 0; i < n; i += stride {
		r.sample[key(i)] = keyRef{}
	}
	for i := 0; i < n; i++ {
		if s, ok := r.sample[key(i)]; ok {
			s.count++
			s.sumV += uint64(i)
			r.sample[key(i)] = s
		}
	}

	top := make([]int64, 0, 11)
	for _, c := range r.counts {
		if len(top) < 10 || int64(c) > top[len(top)-1] {
			top = append(top, int64(c))
			slices.SortFunc(top, func(a, b int64) int { return int(b - a) })
			top = top[:min(len(top), 10)]
		}
	}
	r.top = top
	r.topKeys = map[K]int64{}
	for k, c := range r.counts {
		if int64(c) >= top[len(top)-1] {
			r.topKeys[k] = int64(c)
		}
	}
	r.seenKeys = map[K]struct{}{}
	return r
}

// dropCounts frees the full count map once set-up is done with it.
func (r *ref[K]) dropCounts() { r.counts = nil }

// joinRef is the reference of joining a relation of n records, keyed
// key(i), with a dimension table of distinct keys: the row count and the
// fingerprint of the rows {relation index, dimension index}.
func joinRef[K comparable](n int, key func(int) K, dimKeys []K) (rows int, fp uint64) {
	at := make(map[K]uint64, len(dimKeys))
	for j, k := range dimKeys {
		at[k] = uint64(j)
	}
	for i := 0; i < n; i++ {
		if j, ok := at[key(i)]; ok {
			rows++
			fp += recFP(rec{Key: uint64(i), Value: j})
		}
	}
	return rows, fp
}

// checkGrouped checks a semisort's output: it is a permutation of the
// input (every index V once, fingerprints summing to the input's) and
// equal keys are contiguous (exactly one run per distinct key). seen is
// scratch of at least n bits.
func checkGrouped[R any, K comparable](out []R, key func(R) K, idx, fp func(R) uint64, rf *ref[K], seen bitset) error {
	if len(out) != rf.n {
		return fmt.Errorf("output has %d records, input %d", len(out), rf.n)
	}
	seen.clear()
	runs := 0
	var sum uint64
	for j, r := range out {
		v := idx(r)
		if v >= uint64(rf.n) || seen.has(v) {
			return fmt.Errorf("record %d has index %d out of range or repeated", j, v)
		}
		seen.set(v)
		sum += fp(r)
		if j == 0 || key(out[j-1]) != key(r) {
			runs++
		}
	}
	if sum != rf.fpAll {
		return fmt.Errorf("output records differ from the input records")
	}
	if runs != rf.distinct {
		return fmt.Errorf("output has %d key runs, want %d distinct keys contiguous", runs, rf.distinct)
	}
	return nil
}

// checkDedup checks a dedup's output: one record per distinct key, each
// the key's first input record, unaltered.
func checkDedup[R any, K comparable](out []R, idx, fp func(R) uint64, rf *ref[K], seen bitset) error {
	if len(out) != rf.distinct {
		return fmt.Errorf("dedup kept %d records, want %d distinct", len(out), rf.distinct)
	}
	seen.clear()
	var sum uint64
	for j, r := range out {
		v := idx(r)
		if v >= uint64(rf.n) || !rf.first.has(v) || seen.has(v) {
			return fmt.Errorf("dedup record %d (index %d) is not a distinct first occurrence", j, v)
		}
		seen.set(v)
		sum += fp(r)
	}
	if sum != rf.fpFirst {
		return fmt.Errorf("dedup records differ from the first occurrences")
	}
	return nil
}

// checkCounts checks a histogram: one entry per distinct key, counts
// summing to n, and the sampled keys' counts exact.
func checkCounts[K comparable](out []semisort.KeyCount[K], rf *ref[K]) error {
	if len(out) != rf.distinct {
		return fmt.Errorf("histogram has %d keys, want %d", len(out), rf.distinct)
	}
	var sum int64
	hit := 0
	for _, e := range out {
		if e.Count < 1 {
			return fmt.Errorf("histogram count %d < 1", e.Count)
		}
		sum += e.Count
		if s, ok := rf.sample[e.Key]; ok {
			if s.count != e.Count {
				return fmt.Errorf("histogram count of a sampled key is %d, want %d", e.Count, s.count)
			}
			hit++
		}
	}
	if sum != int64(rf.n) {
		return fmt.Errorf("histogram counts sum to %d, want %d", sum, rf.n)
	}
	if hit != len(rf.sample) {
		return fmt.Errorf("histogram holds %d of %d sampled keys", hit, len(rf.sample))
	}
	return nil
}

// checkSums checks a collect-reduce of record indices under +: one entry
// per distinct key, values summing to the sum of all indices, and the
// sampled keys' sums exact.
func checkSums[K comparable](out []semisort.KeyValue[K, uint64], rf *ref[K]) error {
	if len(out) != rf.distinct {
		return fmt.Errorf("collect-reduce has %d keys, want %d", len(out), rf.distinct)
	}
	var sum uint64
	hit := 0
	for _, e := range out {
		sum += e.Value
		if s, ok := rf.sample[e.Key]; ok {
			if s.sumV != e.Value {
				return fmt.Errorf("collect-reduce value of a sampled key is %d, want %d", e.Value, s.sumV)
			}
			hit++
		}
	}
	if sum != rf.sumV {
		return fmt.Errorf("collect-reduce values sum to %d, want %d", sum, rf.sumV)
	}
	if hit != len(rf.sample) {
		return fmt.Errorf("collect-reduce holds %d of %d sampled keys", hit, len(rf.sample))
	}
	return nil
}

// checkTopK checks a top-k answer against the exact reference counts:
// the counts match position by position, keys are distinct, and every
// key carries its exact count.
func checkTopK[K comparable](out []semisort.KeyCount[K], top []int64, topKeys map[K]int64, seenKeys map[K]struct{}) error {
	if len(out) != len(top) {
		return fmt.Errorf("top-k returned %d keys, want %d", len(out), len(top))
	}
	clear(seenKeys)
	for i, e := range out {
		if e.Count != top[i] {
			return fmt.Errorf("top-k count %d is %d, want %d", i, e.Count, top[i])
		}
		if c, ok := topKeys[e.Key]; !ok || c != e.Count {
			return fmt.Errorf("top-k key %d does not have count %d", i, e.Count)
		}
		if _, dup := seenKeys[e.Key]; dup {
			return fmt.Errorf("top-k key %d repeats", i)
		}
		seenKeys[e.Key] = struct{}{}
	}
	return nil
}

// checkJoin checks a join's rows, each the pair {relation index,
// dimension index} it joined, against the reference count and fingerprint.
func checkJoin(rows []rec, want int, wantFP uint64) error {
	if len(rows) != want {
		return fmt.Errorf("join produced %d rows, want %d", len(rows), want)
	}
	var sum uint64
	for _, row := range rows {
		sum += recFP(row)
	}
	if sum != wantFP {
		return fmt.Errorf("join rows differ from the reference rows")
	}
	return nil
}

// checkKept checks a dedup stream pass: record i is kept exactly when it
// is its key's first occurrence, and the stream's distinct count is
// exact. It returns the number of wrong records.
func checkKept(kept []bool, first bitset, distinct, gotDistinct int) (int, error) {
	wrong := 0
	for i, k := range kept {
		if k != first.has(uint64(i)) {
			wrong++
		}
	}
	if wrong > 0 {
		return wrong, fmt.Errorf("%d records have the wrong kept flag", wrong)
	}
	if gotDistinct != distinct {
		return 1, fmt.Errorf("stream counted %d distinct keys, want %d", gotDistinct, distinct)
	}
	return 0, nil
}

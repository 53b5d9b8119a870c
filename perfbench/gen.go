package main

import (
	"math/bits"
	"math/rand/v2"

	semisort "repro"
)

// Input generation. Every input is a pure function of the workload seed and
// the size, made by one sequential generator, so the same seed gives the
// same inputs on every run and every commit. The program under test
// receives only the generated slices.

// rec is the 16-byte {K,V} record of the u64 calls. V is the record's index
// in its input, which lets the verifier check a permutation exactly.
type rec = semisort.Pair[uint64, uint64]

// srec is the string-keyed record of the string calls; V is its index.
type srec struct {
	K string
	V uint64
}

// splitmix is the splitmix64 generator: tiny, fast and fully specified.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// below returns a uniform value in [0, n) (Lemire's multiply-shift).
func (r *splitmix) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// mix is the splitmix64 finalizer, a bijection on uint64.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniformRecs draws n records with keys uniform over [0, n).
func uniformRecs(n int, seed uint64) []rec {
	r := splitmix{seed}
	a := make([]rec, n)
	for i := range a {
		a[i] = rec{Key: r.below(uint64(n)), Value: uint64(i)}
	}
	return a
}

// zipfRanks draws n ranks over [0, n) with P(rank k) proportional to
// (k+1)^-s, so rank 0 is the most frequent key.
func zipfRanks(n int, s float64, seed uint64) []uint32 {
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x5eed)), s, 1, uint64(n-1))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Uint64())
	}
	return out
}

// rankKey scrambles a rank into a u64 key, so frequent keys are not small
// integers. It is a bijection, so distinct ranks give distinct keys.
func rankKey(rank uint32, salt uint64) uint64 { return mix(uint64(rank) ^ salt) }

// keyedRecs turns ranks into u64 records.
func keyedRecs(ranks []uint32, salt uint64) []rec {
	a := make([]rec, len(ranks))
	for i, k := range ranks {
		a[i] = rec{Key: rankKey(k, salt), Value: uint64(i)}
	}
	return a
}

// dimRanks is the dimension table of the joins: m distinct ranks, every
// 8th rank of the fact table's domain, in shuffled order. It holds rank 0,
// the heaviest fact key, on every seed, so the heavy-key join path and the
// join's output size do not depend on the seed.
func dimRanks(m int, seed uint64) []uint32 {
	out := make([]uint32, m)
	for i := range out {
		out[i] = uint32(8 * i)
	}
	r := splitmix{seed}
	for i := len(out) - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// strPrefix is the 12-byte prefix every string key shares.
const strPrefix = "https://www."

// strAlphabet encodes 6 bits per key byte.
const strAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// appendRankKey appends the string key of a rank: the shared prefix, then
// a 4- to 28-byte tail whose first 4 bytes spell the rank (so distinct
// ranks give distinct keys) and whose rest is filler derived from the rank.
func appendRankKey(dst []byte, rank uint32, salt uint64) []byte {
	dst = append(dst, strPrefix...)
	for i := 0; i < 4; i++ {
		dst = append(dst, strAlphabet[(rank>>(6*i))&63])
	}
	h := mix(uint64(rank) ^ salt)
	for fill := int(h % 25); fill > 0; fill-- {
		h = mix(h)
		dst = append(dst, strAlphabet[h&63])
	}
	return dst
}

// strRecs turns ranks into string records. Every record gets its own copy
// of its key bytes, as keys parsed from a log would, so equal keys never
// share a backing array.
func strRecs(ranks []uint32, salt uint64) []srec {
	var buf []byte
	ends := make([]int, len(ranks))
	for i, k := range ranks {
		buf = appendRankKey(buf, k, salt)
		ends[i] = len(buf)
	}
	all := string(buf)
	a := make([]srec, len(ranks))
	start := 0
	for i, end := range ends {
		a[i] = srec{K: all[start:end], V: uint64(i)}
		start = end
	}
	return a
}

package baseline_test

import (
	"testing"

	"repro/internal/baseline/radix"
	"repro/internal/baseline/samplesort"
)

// BenchmarkDistBaselines times the two baselines that distribute through
// the internal/dist engines: the samplesort (PLSS) and the stable MSD radix
// sort (PLIS). At n = 2^21 the radix sort's top level runs the parallel
// engine and its 256 digit buckets (~8K records each) run the serial
// byte-id engine. Compare runs with -cpu 1,2 and -count.
func BenchmarkDistBaselines(b *testing.B) {
	const n = 1 << 21
	ident := radix.U64(func(x uint64) uint64 { return x })
	algos := []struct {
		name string
		sort func([]uint64)
	}{
		{"PLSS", func(a []uint64) { samplesort.Sort(a, lessU64) }},
		{"PLIS", func(a []uint64) { radix.Sort(a, ident) }},
	}
	inputs := []struct {
		name string
		keys []uint64
	}{
		{"uniform", randKeys(n, 1<<40, 1)},
		{"skewed", skewKeys(n, 2)},
	}
	work := make([]uint64, n)
	for _, alg := range algos {
		for _, in := range inputs {
			b.Run(alg.name+"/"+in.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(work, in.keys)
					b.StartTimer()
					alg.sort(work)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
			})
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	semisort "repro"
)

// The end-to-end test runs the parent in-process; the parent re-executes
// the test binary for its children, which TestMain routes to run.
const childEnv = "PERFBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricListsMatchBenchmarkJSON pins the metric and workload names the
// program emits to the ones BENCHMARK.json declares, in order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", workloadNames, names)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i, d := range want {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer(), bj.PerLayer)
}

// TestWorkloadsEndToEnd runs every workload untraced and traced at a small
// size, through the real parent and child processes, and checks the
// result line: every call verified correct, every named metric present,
// and the hash-once contract read by the traced run exactly 1 per record
// on the u64 ops.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	t.Setenv(childEnv, "1")
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--shift", "9", "--out-dir", t.TempDir()}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := metricList(trace == "1")
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" {
					if h := res.Metrics["core.hash_per_rec"].Value; h != 1 {
						t.Errorf("core.hash_per_rec = %v, want exactly 1 on the u64 ops", h)
					}
				}
			})
		}
	}
}

// The verifier tests feed each check a real engine output, then the same
// output corrupted, and require the corruption to be caught.

func smallUniform(n int) ([]rec, *ref[uint64]) {
	in := uniformRecs(n, 3)
	rf := buildRef(n, func(i int) uint64 { return in[i].Key }, func(i int) uint64 { return recFP(in[i]) })
	return in, rf
}

func TestVerifierCatchesCorruptSort(t *testing.T) {
	in, rf := smallUniform(1 << 14)
	seen := newBitset(len(in))
	out := slices.Clone(in)
	semisort.SortEq(out, key64, semisort.Hash64, eqU64)
	if err := checkGrouped(out, key64, idx64, recFP, rf, seen); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	altered := slices.Clone(out)
	altered[5].Key++
	if checkGrouped(altered, key64, idx64, recFP, rf, seen) == nil {
		t.Error("an altered key was not caught")
	}
	// Move one record of a group of two or more to the end: still a
	// permutation, but that group is no longer contiguous.
	g := 0
	for g < len(out)-1 && out[g].Key != out[g+1].Key {
		g++
	}
	if g >= len(out)-2 || out[g].Key == out[len(out)-1].Key {
		t.Fatal("no group of two to split")
	}
	split := slices.Clone(out)
	split[g+1], split[len(split)-1] = split[len(split)-1], split[g+1]
	if checkGrouped(split, key64, idx64, recFP, rf, seen) == nil {
		t.Error("a split group was not caught")
	}
	if checkGrouped(out[1:], key64, idx64, recFP, rf, seen) == nil {
		t.Error("a lost record was not caught")
	}
}

func TestVerifierCatchesCorruptDedupAndCounts(t *testing.T) {
	in, rf := smallUniform(1 << 14)
	seen := newBitset(len(in))
	d := semisort.Dedup(in, key64, semisort.Hash64, eqU64)
	if err := checkDedup(d, idx64, recFP, rf, seen); err != nil {
		t.Fatalf("correct dedup rejected: %v", err)
	}
	if checkDedup(d[1:], idx64, recFP, rf, seen) == nil {
		t.Error("a lost dedup record was not caught")
	}
	alt := slices.Clone(d)
	alt[0].Key ^= 1 << 40
	if checkDedup(alt, idx64, recFP, rf, seen) == nil {
		t.Error("an altered dedup record was not caught")
	}

	h := semisort.Histogram(in, key64, semisort.Hash64, eqU64)
	if err := checkCounts(h, rf); err != nil {
		t.Fatalf("correct histogram rejected: %v", err)
	}
	h[0].Count++
	if checkCounts(h, rf) == nil {
		t.Error("a wrong count was not caught")
	}

	sums := semisort.CollectReduce(in, key64, semisort.Hash64, eqU64, idx64, add, 0)
	if err := checkSums(sums, rf); err != nil {
		t.Fatalf("correct collect-reduce rejected: %v", err)
	}
	sums[0].Value++
	if checkSums(sums, rf) == nil {
		t.Error("a wrong reduction was not caught")
	}

	top := semisort.TopK(in, topK, key64, semisort.Hash64, eqU64)
	if err := checkTopK(top, rf.top, rf.topKeys, rf.seenKeys); err != nil {
		t.Fatalf("correct top-k rejected: %v", err)
	}
	top[len(top)-1].Count--
	if checkTopK(top, rf.top, rf.topKeys, rf.seenKeys) == nil {
		t.Error("a wrong top-k count was not caught")
	}
}

func TestVerifierCatchesCorruptJoinAndStream(t *testing.T) {
	const n = 1 << 14
	fact := keyedRecs(zipfRanks(n, zipfS, 5), 9)
	dim := keyedRecs(dimRanks(n/8, 6), 9)
	dimKeys := make([]uint64, len(dim))
	for i, d := range dim {
		dimKeys[i] = d.Key
	}
	rows, fp := joinRef(n, func(i int) uint64 { return fact[i].Key }, dimKeys)
	got := semisort.JoinEq(fact, dim, key64, key64, semisort.Hash64, eqU64,
		func(r, s rec) rec { return rec{Key: r.Value, Value: s.Value} })
	if err := checkJoin(got, rows, fp); err != nil {
		t.Fatalf("correct join rejected: %v", err)
	}
	if checkJoin(got[1:], rows, fp) == nil {
		t.Error("a lost join row was not caught")
	}
	got[0].Value = (got[0].Value + 1) % uint64(len(dim))
	if checkJoin(got, rows, fp) == nil {
		t.Error("a mismatched join row was not caught")
	}

	w, err := newWorkload("stream-ingest", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := w.calls[0]
	if err := c.run(nil); err != nil {
		t.Fatal(err)
	}
	if bad, err := c.verify(); bad != 0 || err != nil {
		t.Fatalf("correct stream pass rejected: %d, %v", bad, err)
	}
	w.pass.kept[len(w.pass.kept)-1] = !w.pass.kept[len(w.pass.kept)-1]
	if bad, err := c.verify(); bad != 1 || err == nil {
		t.Errorf("a flipped kept flag gave %d wrong, %v", bad, err)
	}
}

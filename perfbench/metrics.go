package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit, in BENCHMARK.json order.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, measured untraced.
var endToEnd = []metricDef{
	{"mrecs_per_s", "Mrec/s"},
	{"mrecs_per_s_1w", "Mrec/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// timedOps are the public calls with a per-call time metric
// <layer>.<op>_ms and per-op engine counters, in BENCHMARK.json order.
var timedOps = []struct{ layer, op string }{
	{"core", "SortEq"}, {"core", "SortEqInPlace"},
	{"collect", "Histogram"}, {"collect", "CollectReduce"},
	{"rel", "Dedup"}, {"rel", "JoinEq"}, {"rel", "TopK"},
	{"semisort", "Query"},
	{"strkey", "SortEqStr"}, {"strkey", "DedupStr"}, {"strkey", "JoinEqStr"}, {"strkey", "HistogramStr"},
}

// perOpCounters are the per-op CallStats figures, named <counter>.<op>.
var perOpCounters = []metricDef{
	{"sampling.plan_ms", "ms"},
	{"dist.distribute_ms", "ms"},
	{"dist.bytes_per_rec", "B/rec"},
	{"core.leaf_ms", "ms"},
	{"core.eq_per_rec", "1/rec"},
}

// workloadLayer are the per-workload, runtime, stream and tracing figures.
var workloadLayer = []metricDef{
	{"sampling.levels", "count"},
	{"sampling.heavy_keys", "count"},
	{"sampling.collapsed", "count"},
	{"dist.absorbed_per_rec", "1/rec"},
	{"core.probe_per_rec", "1/rec"},
	{"core.hash_per_rec", "1/rec"},
	{"parallel.stolen_frac", "frac"},
	{"parallel.jobs_per_call", "count"},
	{"parallel.allocs_per_call", "count"},
	{"parallel.alloc_mb_per_call", "MB"},
	{"parallel.gc_cycles", "count"},
	{"parallel.retained_heap_mb", "MB"},
	{"stream.submit_ns_per_rec", "ns"},
	{"stream.result_wait_ms", "ms"},
	{"stream.commit_p50_us", "us"},
	{"stream.queue_high_water", "count"},
	{"stream.records_per_flush", "count"},
	{"stream.allocs_per_flush", "count"},
	{"trace.overhead_frac", "frac"},
}

// perLayer is every --trace 1 metric, in BENCHMARK.json order.
func perLayer() []metricDef {
	var out []metricDef
	for _, o := range timedOps {
		out = append(out, metricDef{o.layer + "." + o.op + "_ms", "ms"})
	}
	for _, c := range perOpCounters {
		for _, o := range timedOps {
			out = append(out, metricDef{c.name + "." + o.op, c.unit})
		}
	}
	return append(out, workloadLayer...)
}

// missing is the value of a per-layer metric the workload does not
// measure: a call it does not make, or a counter the engine left at zero
// for every call that should have filled it.
const missing = -1

// median of xs: the middle value, or the mean of the two middle values
// (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := len(s) / 2
	if len(s)%2 == 0 {
		return (s[h-1] + s[h]) / 2
	}
	return s[h]
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// procStatusMB reads a kB field of /proc/self/status ("VmRSS", "VmHWM")
// in MiB, or 0 where the file is not there.
func procStatusMB(field string) float64 {
	kb := readKB("/proc/self/status", field)
	return float64(kb) / 1024
}

// readKB reads "<field>: <n> kB" from a /proc file.
func readKB(path, field string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if ok && name == field {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// host describes the machine a result was measured on. Results from hosts
// of a different shape are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS []int  `json:"gomaxprocs"`
	MemTotalMB int64  `json:"mem_total_mb"`
	LLC        string `json:"llc"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

func hostInfo(seed uint64, procs []int) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		MemTotalMB: readKB("/proc/meminfo", "MemTotal") / 1024,
		LLC:        llcSize(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

// llcSize is the size of CPU 0's highest-level cache, as sysfs spells it
// ("L3 107520K"), or "unknown".
func llcSize() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := -1, "unknown"
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l, err := strconv.Atoi(strings.TrimSpace(string(lv))); err == nil && l > best {
			best, size = l, "L"+strconv.Itoa(l)+" "+strings.TrimSpace(string(sz))
		}
	}
	return size
}

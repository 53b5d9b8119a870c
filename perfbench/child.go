package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	semisort "repro"
)

// A child process runs one workload: it sets up (generates the inputs and
// references and warms up with one untimed job), then runs a fixed number
// of timed jobs at its GOMAXPROCS, alternating with timed jobs at
// GOMAXPROCS=1, and writes a childResult. A plain child measures
// untraced; a traced child arms WithStats, reads the runtime, stream and Go
// memory counters, records one span per public call and writes the spans
// at exit.

// childResult is what a child hands its parent.
type childResult struct {
	Procs  int       `json:"procs"`
	Traced bool      `json:"traced"`
	SetupS float64   `json:"setup_s"`
	JobS   []float64 `json:"job_s"` // timed seconds per job at Procs
	// SingleJobS are the timed seconds per job at GOMAXPROCS=1.
	SingleJobS []float64            `json:"single_job_s,omitempty"`
	Records    int                  `json:"records"` // input records per job
	OpMS       map[string][]float64 `json:"op_ms"`   // <layer>.<op>_ms -> per-call ms at Procs
	LatMS      [][]float64          `json:"lat_ms"`  // per wide pass: sampled stream records' latency
	// ProbeS are the host-speed probe's seconds at Procs before and after
	// set-up and after every timed job there, SingleProbeS at
	// GOMAXPROCS=1 before the first and after every timed job there
	// (untraced children only).
	ProbeS       []float64          `json:"probe_s,omitempty"`
	SingleProbeS []float64          `json:"single_probe_s,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`     // VmHWM, less the probe's counters
	Layer        map[string]float64 `json:"layer,omitempty"` // traced child only
	// CallStats sums each op's WithStats counters over its timed calls
	// (traced child only), so a counter the engine leaves at zero shows
	// as missing data rather than as a zero.
	CallStats map[string]semisort.CallStats `json:"call_stats,omitempty"`
}

// span is one timed interval of the traced run: a job, or one public call
// (or one sampled stream record) with its job as parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Records int    `json:"records,omitempty"`
}

// opStats accumulates one op's traced counters.
type opStats struct {
	calls, records int64
	hashOnce       bool
	zeroCalls      int64 // calls whose CallStats came back all zero
	cs             semisort.CallStats
	mallocs, bytes uint64
}

// meter runs jobs and accumulates their figures.
type meter struct {
	w      *workload
	traced bool
	res    *childResult
	epoch  time.Time
	ops    map[string]*opStats
	spans  []span
	calls  int
}

type childOpts struct {
	workload   string
	seed       uint64
	wide       int // timed jobs at GOMAXPROCS=nproc
	single     int // timed jobs at GOMAXPROCS=1
	traced     bool
	shift      uint
	resultPath string
	spansPath  string
}

// runChild runs one child and writes its result to o.resultPath.
func runChild(o childOpts, log io.Writer) error {
	procs := runtime.GOMAXPROCS(0)
	mode := "plain"
	if o.traced {
		mode = "traced"
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(log, "[%s p=%d %s] %s rss=%.0fMB\n", o.workload, procs, mode,
			fmt.Sprintf(format, a...), procStatusMB("VmRSS"))
	}
	// The untraced child maps the probe first, so it is resident for the
	// process's whole life and its peak RSS is the program's plus the
	// probe's counters.
	var pr *prober
	if !o.traced {
		var err error
		if pr, err = newProber(procs); err != nil {
			return err
		}
	}
	var probes []float64
	probe := func(*[]float64) {}
	if pr != nil {
		probe = func(into *[]float64) { *into = append(*into, pr.run()) }
		probe(&probes)
	}
	start := time.Now()
	w, err := newWorkload(o.workload, o.seed, o.shift)
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapInuse
	logf("inputs and references ready in %.2fs", time.Since(start).Seconds())

	m := &meter{w: w, traced: o.traced, epoch: start, ops: map[string]*opStats{},
		res: &childResult{Procs: procs, Traced: o.traced, Records: w.records, OpMS: map[string][]float64{},
			ProbeS: probes}}
	if w.pass != nil {
		w.pass.traced = o.traced
	}
	m.job(false, false)
	if w.pass != nil {
		w.pass.reset()
	}
	m.res.SetupS = time.Since(start).Seconds()
	logf("set-up done in %.3fs (inputs, references, one warm-up job)", m.res.SetupS)

	rt0 := semisort.DefaultRuntime().Metrics()
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	// The probe runs at the current GOMAXPROCS, before the first job
	// there and after every job.
	probe(&m.res.ProbeS)
	for len(m.res.JobS) < o.wide || len(m.res.SingleJobS) < o.single {
		if len(m.res.JobS) < o.wide {
			jobS := m.job(true, false)
			probe(&m.res.ProbeS)
			logf("job %d: %.3fs, %.2f Mrec/s", len(m.res.JobS), jobS, float64(m.w.records)/jobS/1e6)
		}
		if len(m.res.SingleJobS) < o.single {
			runtime.GOMAXPROCS(1)
			if len(m.res.SingleJobS) == 0 {
				probe(&m.res.SingleProbeS)
			}
			jobS := m.job(true, true)
			probe(&m.res.SingleProbeS)
			runtime.GOMAXPROCS(procs)
			logf("job %d at p=1: %.3fs, %.2f Mrec/s", len(m.res.SingleJobS), jobS, float64(m.w.records)/jobS/1e6)
		}
	}
	rt1 := semisort.DefaultRuntime().Metrics()
	runtime.ReadMemStats(&ms)
	gcCycles := ms.NumGC - gc0
	m.res.PeakRSSMB = procStatusMB("VmHWM")
	if pr != nil {
		m.res.PeakRSSMB -= pr.sizeMB()
	}

	if o.traced {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retainedMB := (float64(ms.HeapInuse) - float64(baseHeap)) / (1 << 20)
		m.res.Layer = m.layerMetrics(rt0, rt1, gcCycles, retainedMB)
		m.res.CallStats = map[string]semisort.CallStats{}
		for op, s := range m.ops {
			m.res.CallStats[op] = s.cs
			if s.zeroCalls > 0 {
				logf("missing data: WithStats left %d of %d %s calls all zero", s.zeroCalls, s.calls, op)
			} else if s.cs.HashCalls == 0 {
				logf("missing data: WithStats reports no hash calls for %s", op)
			}
		}
		if err := writeJSON(o.spansPath, m.spans); err != nil {
			return err
		}
		logf("wrote %d spans to %s", len(m.spans), o.spansPath)
	}
	logf("done: %d jobs, median %.3fs; %d jobs at p=1, median %.3fs; %d/%d requests failed, peak rss %.0fMB",
		len(m.res.JobS), median(m.res.JobS), len(m.res.SingleJobS), median(m.res.SingleJobS),
		m.res.Failed, m.res.Attempted, m.res.PeakRSSMB)
	return writeJSON(o.resultPath, m.res)
}

// job runs every call of the workload once and returns the job's timed
// seconds. An untimed job (the warm-up) is verified and counted but not
// measured. A single job, run at GOMAXPROCS=1, adds only its job time.
func (m *meter) job(timed, single bool) float64 {
	jobID := len(m.spans) + 1
	if timed && m.traced {
		m.spans = append(m.spans, span{ID: jobID, Name: "job"})
	}
	jobStart := time.Now()
	var total time.Duration
	for _, c := range m.w.calls {
		if c.prep != nil {
			c.prep()
		}
		trace := timed && m.traced && !single
		var cs semisort.CallStats
		var opts []semisort.Option
		var m0, m1 runtime.MemStats
		if trace {
			opts = []semisort.Option{semisort.WithStats(&cs)}
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		err := c.run(opts)
		dt := time.Since(t0)
		if trace {
			runtime.ReadMemStats(&m1)
			m.account(c, &cs, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
			m.spans = append(m.spans, span{ID: len(m.spans) + 1, Parent: jobID, Name: c.op,
				StartNS: t0.Sub(m.epoch).Nanoseconds(), EndNS: t0.Add(dt).Sub(m.epoch).Nanoseconds(), Records: c.records})
		}
		total += dt

		m.res.Attempted += c.requests
		failed := c.requests
		if err == nil {
			failed, err = c.verify()
		}
		if err != nil {
			m.res.Failed += failed
			if len(m.res.Errors) < 8 {
				m.res.Errors = append(m.res.Errors, c.op+": "+err.Error())
			}
		}
		if timed && !single {
			ms := float64(dt.Nanoseconds()) / 1e6
			name := c.layer + "." + c.op + "_ms"
			m.res.OpMS[name] = append(m.res.OpMS[name], ms)
			m.calls++
		}
	}
	if !timed {
		return total.Seconds()
	}
	if single {
		if p := m.w.pass; p != nil {
			p.reset()
		}
		m.res.SingleJobS = append(m.res.SingleJobS, total.Seconds())
		return total.Seconds()
	}
	if p := m.w.pass; p != nil {
		m.res.LatMS = append(m.res.LatMS, slices.Clone(p.latMS))
		p.latMS = p.latMS[:0]
		if m.traced {
			for _, s := range p.spans {
				m.spans = append(m.spans, span{ID: len(m.spans) + 1, Parent: jobID, Name: "Submit",
					StartNS: s.t0.Sub(m.epoch).Nanoseconds(), EndNS: s.t1.Sub(m.epoch).Nanoseconds(), Records: 1})
			}
			p.spans = p.spans[:0]
		}
	}
	if m.traced {
		m.spans[jobID-1].StartNS = jobStart.Sub(m.epoch).Nanoseconds()
		m.spans[jobID-1].EndNS = time.Since(m.epoch).Nanoseconds()
	}
	m.res.JobS = append(m.res.JobS, total.Seconds())
	return total.Seconds()
}

// account adds one traced call's counters to its op.
func (m *meter) account(c call, cs *semisort.CallStats, mallocs, bytes uint64) {
	s := m.ops[c.op]
	if s == nil {
		s = &opStats{hashOnce: c.hashOnce}
		m.ops[c.op] = s
	}
	s.calls++
	s.records += int64(c.records)
	if *cs == (semisort.CallStats{}) {
		s.zeroCalls++
	}
	s.cs.Add(*cs)
	s.mallocs += mallocs
	s.bytes += bytes
}

// layerMetrics derives the traced per-layer figures. A figure the
// workload does not measure reads missing.
func (m *meter) layerMetrics(rt0, rt1 semisort.RuntimeMetrics, gcCycles uint32, retainedMB float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer() {
		out[d.name] = missing
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return missing
		}
		return float64(a) / float64(b)
	}
	var all, hashed opStats
	var mallocs, bytes uint64
	for op, s := range m.ops {
		mallocs += s.mallocs
		bytes += s.bytes
		if s.zeroCalls == s.calls { // the engine reported nothing: missing data
			continue
		}
		if _, ok := out["core.eq_per_rec."+op]; ok {
			out["sampling.plan_ms."+op] = float64(s.cs.PlanNS) / float64(s.calls) / 1e6
			out["dist.distribute_ms."+op] = float64(s.cs.DistributeNS) / float64(s.calls) / 1e6
			out["dist.bytes_per_rec."+op] = ratio(s.cs.BytesMoved, s.records)
			out["core.leaf_ms."+op] = float64(s.cs.LeafNS) / float64(s.calls) / 1e6
			out["core.eq_per_rec."+op] = ratio(s.cs.EqCalls, s.records)
		}
		all.calls += s.calls
		all.records += s.records
		all.cs.Add(s.cs)
		if s.hashOnce {
			hashed.records += s.records
			hashed.cs.HashCalls += s.cs.HashCalls
		}
	}
	out["sampling.levels"] = ratio(all.cs.Levels, all.calls)
	out["sampling.heavy_keys"] = ratio(all.cs.HeavyKeys, all.calls)
	out["sampling.collapsed"] = ratio(all.cs.Collapsed, all.calls)
	out["dist.absorbed_per_rec"] = ratio(all.cs.Absorbed, all.records)
	out["core.probe_per_rec"] = ratio(all.cs.ProbeCalls, all.records)
	out["core.hash_per_rec"] = ratio(hashed.cs.HashCalls, hashed.records)

	chunks := (rt1.ChunksByOwner - rt0.ChunksByOwner) + (rt1.ChunksStolen - rt0.ChunksStolen)
	out["parallel.stolen_frac"] = ratio(rt1.ChunksStolen-rt0.ChunksStolen, chunks)
	out["parallel.jobs_per_call"] = ratio(rt1.Jobs-rt0.Jobs, int64(m.calls))
	out["parallel.allocs_per_call"] = float64(mallocs) / float64(m.calls)
	out["parallel.alloc_mb_per_call"] = float64(bytes) / float64(m.calls) / (1 << 20)
	out["parallel.gc_cycles"] = float64(gcCycles) / float64(len(m.res.JobS))
	out["parallel.retained_heap_mb"] = retainedMB

	if p := m.w.pass; p != nil {
		var submitted, flushes, highWater int64
		var commit semisort.LogHist
		for _, sm := range p.metrics {
			submitted += sm.Submitted
			flushes += sm.Flushes
			highWater = max(highWater, sm.QueueHighWater)
			for i, c := range sm.CommitNS.Counts {
				commit.Counts[i] += c
			}
		}
		wait := make([]float64, len(p.waitNS))
		for i, ns := range p.waitNS {
			wait[i] = float64(ns) / 1e6
		}
		out["stream.submit_ns_per_rec"] = ratio(p.submitNS, submitted)
		out["stream.result_wait_ms"] = median(wait)
		out["stream.commit_p50_us"] = histQuantile(&commit, 0.5) / 1e3
		out["stream.queue_high_water"] = float64(highWater)
		out["stream.records_per_flush"] = ratio(submitted, flushes)
		out["stream.allocs_per_flush"] = ratio(int64(m.ops["DedupStream"].mallocs), flushes)
	}
	return out
}

// histQuantile is the upper edge of the log2 bucket holding the
// q-quantile of h.
func histQuantile(h *semisort.LogHist, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return missing
	}
	rank := int64(math.Ceil(q * float64(n)))
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			return math.Exp2(float64(i))
		}
	}
	return missing
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

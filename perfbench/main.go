// Command perfbench is the repository benchmark: it drives the public
// semisort API from outside on three workloads, checks every call's output
// against reference answers, and prints one JSON result line. See
// README.md for the workloads, the metrics and how to run it.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The parent process spawns a child process per measurement phase and
// combines their results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// deadline bounds a whole run, children included.
const deadline = 170 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: semisort-uniform, relational-skewed or stream-ingest")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run, at the nominal job time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	outDir := fs.String("out-dir", filepath.Join(".bench_build", "perfbench"), "directory for result records and spans")
	shift := fs.Uint("shift", 0, "divide every input size by 2^shift (tests)")
	child := fs.String("child", "", "internal: run one measurement phase, plain or traced")
	wide := fs.Int("wide", minJobs, "internal: timed jobs of a child at its GOMAXPROCS")
	single := fs.Int("single", 0, "internal: timed jobs of a child at GOMAXPROCS=1")
	result := fs.String("result", "", "internal: child result file")
	spans := fs.String("spans", "", "internal: traced child span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	if *child != "" {
		return runChild(childOpts{workload: *workload, seed: *seed, wide: *wide, single: *single,
			traced: *child == "traced", shift: *shift, resultPath: *result, spansPath: *spans}, stdout)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	return runParent(ctx, parentOpts{workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, shift: *shift, outDir: *outDir}, stdout)
}

type parentOpts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	shift    uint
	outDir   string
}

// phase is one child process of a run.
type phase struct {
	name   string
	traced bool
	// wide and single are the timed jobs at GOMAXPROCS=nproc and at
	// GOMAXPROCS=1; the child alternates them.
	wide, single int
}

// minJobs is the fewest timed jobs a child runs at a GOMAXPROCS.
const minJobs = 2

// plan lists the children of a run, run one after another. An untraced
// run is the workload's children count of identical children. Each sets
// up once, then alternates jobs at GOMAXPROCS=nproc and at GOMAXPROCS=1,
// so both throughputs sample the same stretches of the run and a host
// that drifts in speed moves them alike. Several short processes rather
// than one long one give several set-up times, and bound the memory a
// process retains, which grows with the jobs it has run (see README.md).
// A traced run measures an untraced and a traced child at
// GOMAXPROCS=nproc, for the per-call times and the tracing overhead. Job
// counts follow from the seconds, the workload's nominal job times and the
// probe's, so every run of a commit does the same work and figures that
// grow with the work done, such as peak RSS, stay comparable.
func plan(o parentOpts) []phase {
	sh := shapes[o.workload]
	pairs := max(minJobs, int(math.Round(o.seconds/float64(sh.children)/(sh.wideS+sh.singleS+2*probeRefS))))
	if o.trace {
		return []phase{{"plain", false, 2 * pairs, 0}, {"traced", true, 2 * pairs, 0}}
	}
	var ps []phase
	for i := 1; i <= sh.children; i++ {
		ps = append(ps, phase{fmt.Sprintf("plain%d", i), false, pairs, pairs})
	}
	return ps
}

// record is the result record written next to every run: the host, the
// per-child figures and the metrics of the result line.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Host      host                    `json:"host"`
	Children  map[string]*childResult `json:"children"`
	FailRatio float64                 `json:"fail_ratio"`
	// Unscaled are the end-to-end metrics without the host-speed probe's
	// rescaling (untraced runs only).
	Unscaled map[string]metric `json:"unscaled,omitempty"`
	Result   resultLine        `json:"result"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runParent(ctx context.Context, o parentOpts, stdout io.Writer) error {
	dir := filepath.Join(o.outDir, fmt.Sprintf("%s-s%d-t%d", o.workload, o.seed, btoi(o.trace)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	phases := plan(o)
	procs := []int{runtime.NumCPU()}
	if !o.trace {
		procs = append(procs, 1)
	}
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: hostInfo(o.seed, procs), Children: map[string]*childResult{}}
	hb, _ := json.Marshal(rec.Host)
	fmt.Fprintf(stdout, "[%s] host %s\n", o.workload, hb)

	for _, p := range phases {
		res, err := runPhase(ctx, exe, dir, o, p, stdout)
		if err != nil {
			return fmt.Errorf("phase %s: %w", p.name, err)
		}
		rec.Children[p.name] = res
		rec.Result.Attempted += res.Attempted
		rec.Result.Failed += res.Failed
		for _, e := range res.Errors {
			fmt.Fprintf(stdout, "[%s] phase %s: wrong output: %s\n", o.workload, p.name, e)
		}
	}
	if o.trace {
		rec.Result.Metrics = layerResult(rec.Children["plain"], rec.Children["traced"])
	} else {
		rec.Result.Metrics = endToEndResult(phases, rec.Children, true)
		rec.Unscaled = endToEndResult(phases, rec.Children, false)
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "[%s] unscaled %-23s %14.4f %s\n", o.workload, d.name, rec.Unscaled[d.name].Value, d.unit)
		}
	}
	rec.Result.Correct = rec.Result.Failed == 0
	rec.FailRatio = float64(rec.Result.Failed) / float64(max(rec.Result.Attempted, 1))
	for _, d := range metricList(o.trace) {
		fmt.Fprintf(stdout, "[%s] %-32s %14.4f %s\n", o.workload, d.name, rec.Result.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "[%s] fail_ratio %.6f (%d of %d requests)\n", o.workload, rec.FailRatio, rec.Result.Failed, rec.Result.Attempted)
	if err := writeJSON(filepath.Join(dir, "record.json"), rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func metricList(trace bool) []metricDef {
	if trace {
		return perLayer()
	}
	return endToEnd
}

// runPhase runs one child process to completion and reads its result.
func runPhase(ctx context.Context, exe, dir string, o parentOpts, p phase, stdout io.Writer) (*childResult, error) {
	resultPath := filepath.Join(dir, p.name+".json")
	_ = os.Remove(resultPath)
	args := []string{"--child", "plain", "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10), "--wide", strconv.Itoa(p.wide),
		"--single", strconv.Itoa(p.single),
		"--shift", strconv.FormatUint(uint64(o.shift), 10), "--result", resultPath}
	if p.traced {
		args[1] = "traced"
		args = append(args, "--spans", filepath.Join(dir, "spans.json"))
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, errors.Join(err, ctxErr)
		}
		return nil, err
	}
	b, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, err
	}
	var res childResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("read %s: %w", resultPath, err)
	}
	return &res, nil
}

// endToEndResult combines the untraced children. Their job times, call
// times and stream latencies are pooled: throughput is from the median job
// time at each GOMAXPROCS, and stream latency percentiles are over the
// sampled records of every wide pass. Peak RSS and set-up time are the
// medians over the children. On the batch workloads a request is one
// public call at GOMAXPROCS=nproc: the p50 is taken over every timed call,
// and, as each op runs only a few times a run, the p99 is the slowest
// op's median call time. With scaled set, every time is first
// rescaled to the reference host by the probes its child ran at the same
// GOMAXPROCS; set-up counts as wide.
func endToEndResult(phases []phase, children map[string]*childResult, scaled bool) map[string]metric {
	var wide, single, lat, setup, rss []float64
	ops := map[string][]float64{}
	records := 0
	for _, p := range phases {
		c := children[p.name]
		fw, fs := 1.0, 1.0
		if scaled {
			fw, fs = probeScale(c.ProbeS), probeScale(c.SingleProbeS)
		}
		records = c.Records
		for _, t := range c.JobS {
			wide = append(wide, t*fw)
		}
		for _, t := range c.SingleJobS {
			single = append(single, t*fs)
		}
		for _, pass := range c.LatMS {
			for _, ms := range pass {
				lat = append(lat, ms*fw)
			}
		}
		for name, calls := range c.OpMS {
			for _, ms := range calls {
				ops[name] = append(ops[name], ms*fw)
			}
		}
		setup = append(setup, c.SetupS*fw)
		rss = append(rss, c.PeakRSSMB)
	}
	lat50, lat99 := median(lat), quantile(lat, 0.99)
	if len(lat) == 0 {
		var calls, opMedians []float64
		for _, ms := range ops {
			calls = append(calls, ms...)
			opMedians = append(opMedians, median(ms))
		}
		lat50, lat99 = median(calls), slices.Max(opMedians)
	}
	return map[string]metric{
		"mrecs_per_s":    {float64(records) / median(wide) / 1e6, "Mrec/s"},
		"mrecs_per_s_1w": {float64(records) / median(single) / 1e6, "Mrec/s"},
		"peak_rss_mb":    {median(rss), "MB"},
		"setup_s":        {median(setup), "s"},
		"latency_p50_ms": {lat50, "ms"},
		"latency_p99_ms": {lat99, "ms"},
	}
}

// layerResult combines a traced run: per-call median times from the plain
// child, counters from the traced child, and the tracing overhead between
// the two.
func layerResult(plain, traced *childResult) map[string]metric {
	out := map[string]metric{}
	for _, d := range perLayer() {
		v, ok := traced.Layer[d.name]
		if !ok {
			v = missing
		}
		out[d.name] = metric{v, d.unit}
	}
	for name, ms := range plain.OpMS {
		if m, ok := out[name]; ok {
			m.Value = median(ms)
			out[name] = m
		}
	}
	untraced := float64(plain.Records) / median(plain.JobS)
	tracedRate := float64(traced.Records) / median(traced.JobS)
	out["trace.overhead_frac"] = metric{(untraced - tracedRate) / untraced, "frac"}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

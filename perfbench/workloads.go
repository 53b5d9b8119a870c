package main

import (
	"fmt"
	"sync"
	"time"

	semisort "repro"
)

// Workload sizes at full scale (shift 0). The tests run the same workloads
// with every size shifted down.
const (
	uniformN    = 1 << 21 // semisort-uniform records: 32 MiB of input
	skewedN     = 1 << 21 // relational-skewed u64 records
	skewedStrN  = 1 << 20 // relational-skewed string records
	streamN     = 1 << 20 // stream-ingest records per pass
	streamBatch = 4096    // stream flush size
	zipfS       = 1.2     // skew of the Zipf inputs
	topK        = 10
	// Every latencyEvery-th stream record is timed from Submit to result;
	// every spanEvery-th also gets a span in the traced run.
	latencyEvery = 64
	spanEvery    = 1024
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"semisort-uniform", "relational-skewed", "stream-ingest"}

// runShape says how a workload's runs are split. wideS and singleS are
// about the median job time at GOMAXPROCS=2 and at GOMAXPROCS=1 on the
// reference host (2 vCPU, 105 MiB L3); a run's job count is its seconds
// divided by them, so a run measures about --seconds. children is the
// untraced run's process count.
type runShape struct {
	wideS, singleS float64
	children       int
}

var shapes = map[string]runShape{
	"semisort-uniform":  {wideS: 0.45, singleS: 0.72, children: 4},
	"relational-skewed": {wideS: 0.83, singleS: 1.25, children: 3},
	"stream-ingest":     {wideS: 0.49, singleS: 0.52, children: 5},
}

// call is one public call of a job.
type call struct {
	op       string // public call, as in the metric <layer>.<op>_ms
	layer    string // module whose time the call mostly is
	records  int    // input records the call reads
	requests int    // requests it makes: 1, or one per record for the stream
	hashOnce bool   // a u64 call under the hash-once contract
	prep     func() // untimed, before the call
	// run makes the timed call. opts carries WithStats in the traced run.
	run func(opts []semisort.Option) error
	// verify checks the output of the last run, outside the timed region,
	// drops it, and returns how many requests were wrong.
	verify func() (int, error)
}

// workload is a set of inputs, their reference answers, and the calls of
// one job: a job is one pass of the calls over the same inputs.
type workload struct {
	calls   []call
	records int         // input records per job, summed over the calls
	pass    *streamPass // the stream-ingest pass; nil for batch workloads
}

func key64(r rec) uint64     { return r.Key }
func idx64(r rec) uint64     { return r.Value }
func eqU64(a, b uint64) bool { return a == b }
func keyStr(r srec) string   { return r.K }
func idxStr(r srec) uint64   { return r.V }
func add(a, b uint64) uint64 { return a + b }

// failedIf turns a batch call's check into a failed-request count.
func failedIf(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// newWorkload generates a workload's inputs and reference answers from
// seed. shift divides every size by 2^shift.
func newWorkload(name string, seed uint64, shift uint) (*workload, error) {
	var w *workload
	switch name {
	case "semisort-uniform":
		w = uniformWorkload(uniformN>>shift, seed)
	case "relational-skewed":
		w = skewedWorkload(skewedN>>shift, skewedStrN>>shift, seed)
	case "stream-ingest":
		n := max(streamN>>shift&^(streamBatch-1), 2*streamBatch)
		w = streamWorkload(n, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, c := range w.calls {
		w.records += c.records
	}
	return w, nil
}

// uniformWorkload is the paper's three problems on u64 keys drawn
// uniformly from [0, n): no heavy keys, so distribution bandwidth, the leaf
// base case and the runtime carry the time.
func uniformWorkload(n int, seed uint64) *workload {
	in := uniformRecs(n, mix(seed^1))
	rf := buildRef(n, func(i int) uint64 { return in[i].Key }, func(i int) uint64 { return recFP(in[i]) })
	rf.dropCounts()
	work := make([]rec, n)
	seen := newBitset(n)
	copyIn := func() { copy(work, in) }
	checkWork := func() (int, error) { return failedIf(checkGrouped(work, key64, idx64, recFP, rf, seen)) }
	var hist []semisort.KeyCount[uint64]
	var sums []semisort.KeyValue[uint64, uint64]
	return &workload{calls: []call{
		{op: "SortEq", layer: "core", records: n, requests: 1, hashOnce: true, prep: copyIn,
			run: func(o []semisort.Option) error {
				return semisort.SortEqE(work, key64, semisort.Hash64, eqU64, o...)
			},
			verify: checkWork},
		{op: "SortEqInPlace", layer: "core", records: n, requests: 1, hashOnce: true, prep: copyIn,
			run: func(o []semisort.Option) error {
				return semisort.SortEqInPlaceE(work, key64, semisort.Hash64, eqU64, o...)
			},
			verify: checkWork},
		{op: "Histogram", layer: "collect", records: n, requests: 1, hashOnce: true,
			run: func(o []semisort.Option) (err error) {
				hist, err = semisort.HistogramE(in, key64, semisort.Hash64, eqU64, o...)
				return err
			},
			verify: func() (int, error) {
				defer func() { hist = nil }()
				return failedIf(checkCounts(hist, rf))
			}},
		{op: "CollectReduce", layer: "collect", records: n, requests: 1, hashOnce: true,
			run: func(o []semisort.Option) (err error) {
				sums, err = semisort.CollectReduceE(in, key64, semisort.Hash64, eqU64, idx64, add, 0, o...)
				return err
			},
			verify: func() (int, error) {
				defer func() { sums = nil }()
				return failedIf(checkSums(sums, rf))
			}},
	}}
}

// skewedWorkload runs the relational calls on Zipf-1.2 keys, u64 and
// string: heavy-key sampling, collapse and absorb decide the plan, and the
// string calls run on the arena key plane.
func skewedWorkload(n, ns int, seed uint64) *workload {
	// The u64 and the string inputs come from independent generators and
	// are set up concurrently.
	var (
		fact, dim   []rec
		rf          *ref[uint64]
		joinRows    int
		joinFP      uint64
		queryKeys   map[uint64]int64
		queryTop    []int64
		sfact, sdim []srec
		srf         *ref[string]
		sJoinRows   int
		sJoinFP     uint64
		wg          sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		salt := mix(seed ^ 2)
		fact = keyedRecs(zipfRanks(n, zipfS, mix(seed^3)), salt)
		dim = keyedRecs(dimRanks(n/8, mix(seed^4)), salt)
		factKey := func(i int) uint64 { return fact[i].Key }
		rf = buildRef(n, factKey, func(i int) uint64 { return recFP(fact[i]) })
		dimKeys := make([]uint64, len(dim))
		for i, d := range dim {
			dimKeys[i] = d.Key
		}
		joinRows, joinFP = joinRef(n, factKey, dimKeys)
		// Dedup(fact) joined with the distinct dimension table holds each
		// shared key once, so the query's top-10 counts are all 1.
		queryKeys = map[uint64]int64{}
		for _, k := range dimKeys {
			if rf.counts[k] > 0 {
				queryKeys[k] = 1
			}
		}
		queryTop = make([]int64, min(topK, len(queryKeys)))
		for i := range queryTop {
			queryTop[i] = 1
		}
		rf.dropCounts()
	}()
	ssalt := mix(seed ^ 5)
	sfact = strRecs(zipfRanks(ns, zipfS, mix(seed^6)), ssalt)
	sdim = strRecs(dimRanks(ns/8, mix(seed^7)), ssalt)
	sfactKey := func(i int) string { return sfact[i].K }
	srf = buildRef(ns, sfactKey, func(i int) uint64 { return srecFP(sfact[i]) })
	sdimKeys := make([]string, len(sdim))
	for i, d := range sdim {
		sdimKeys[i] = d.K
	}
	sJoinRows, sJoinFP = joinRef(ns, sfactKey, sdimKeys)
	srf.dropCounts()
	wg.Wait()

	work := make([]rec, n)
	swork := make([]srec, ns)
	seen := newBitset(n)
	join := func(r, s rec) rec { return rec{Key: r.Value, Value: s.Value} }
	sjoin := func(r, s srec) rec { return rec{Key: r.V, Value: s.V} }
	var recs []rec
	var srecs []srec
	var counts []semisort.KeyCount[uint64]
	var scounts []semisort.KeyCount[string]
	drop := func() { recs, srecs, counts, scounts = nil, nil, nil, nil }
	return &workload{calls: []call{
		{op: "SortEq", layer: "core", records: n, requests: 1, hashOnce: true,
			prep: func() { copy(work, fact) },
			run: func(o []semisort.Option) error {
				return semisort.SortEqE(work, key64, semisort.Hash64, eqU64, o...)
			},
			verify: func() (int, error) {
				return failedIf(checkGrouped(work, key64, idx64, recFP, rf, seen))
			}},
		{op: "Dedup", layer: "rel", records: n, requests: 1, hashOnce: true,
			run: func(o []semisort.Option) (err error) {
				recs, err = semisort.DedupE(fact, key64, semisort.Hash64, eqU64, o...)
				return err
			},
			verify: func() (int, error) { defer drop(); return failedIf(checkDedup(recs, idx64, recFP, rf, seen)) }},
		{op: "JoinEq", layer: "rel", records: n + len(dim), requests: 1, hashOnce: true,
			run: func(o []semisort.Option) (err error) {
				recs, err = semisort.JoinEqE(fact, dim, key64, key64, semisort.Hash64, eqU64, join, o...)
				return err
			},
			verify: func() (int, error) {
				defer drop()
				return failedIf(checkJoin(recs, joinRows, joinFP))
			}},
		{op: "TopK", layer: "rel", records: n, requests: 1, hashOnce: true,
			run: func(o []semisort.Option) (err error) {
				counts, err = semisort.TopKE(fact, topK, key64, semisort.Hash64, eqU64, o...)
				return err
			},
			verify: func() (int, error) {
				defer drop()
				return failedIf(checkTopK(counts, rf.top, rf.topKeys, rf.seenKeys))
			}},
		{op: "Query", layer: "semisort", records: n + len(dim), requests: 1, hashOnce: true,
			run: func(o []semisort.Option) (err error) {
				counts, err = semisort.Query(fact, key64, semisort.Hash64, eqU64, o...).
					Dedup().JoinEq(dim, key64).TopKE(topK)
				return err
			},
			verify: func() (int, error) {
				defer drop()
				return failedIf(checkTopK(counts, queryTop, queryKeys, rf.seenKeys))
			}},
		{op: "SortEqStr", layer: "strkey", records: ns, requests: 1,
			prep: func() { copy(swork, sfact) },
			run:  func(o []semisort.Option) error { return semisort.SortEqStrE(swork, keyStr, o...) },
			verify: func() (int, error) {
				return failedIf(checkGrouped(swork, keyStr, idxStr, srecFP, srf, seen))
			}},
		{op: "DedupStr", layer: "strkey", records: ns, requests: 1,
			run: func(o []semisort.Option) (err error) {
				srecs, err = semisort.DedupStrE(sfact, keyStr, o...)
				return err
			},
			verify: func() (int, error) { defer drop(); return failedIf(checkDedup(srecs, idxStr, srecFP, srf, seen)) }},
		{op: "JoinEqStr", layer: "strkey", records: ns + len(sdim), requests: 1,
			run: func(o []semisort.Option) (err error) {
				recs, err = semisort.JoinEqStrE(sfact, sdim, keyStr, keyStr, sjoin, o...)
				return err
			},
			verify: func() (int, error) {
				defer drop()
				return failedIf(checkJoin(recs, sJoinRows, sJoinFP))
			}},
		{op: "HistogramStr", layer: "strkey", records: ns, requests: 1,
			run: func(o []semisort.Option) (err error) {
				scounts, err = semisort.HistogramStrE(sfact, keyStr, o...)
				return err
			},
			verify: func() (int, error) { defer drop(); return failedIf(checkCounts(scounts, srf)) }},
	}}
}

// streamWorkload feeds Zipf-1.2 records through a DedupStream: the Dedup
// engine runs on 4096-record calls, so per-record Submit cost and fixed
// per-call overhead dominate.
func streamWorkload(n int, seed uint64) *workload {
	in := keyedRecs(zipfRanks(n, zipfS, mix(seed^8)), mix(seed^9))
	rf := buildRef(n, func(i int) uint64 { return in[i].Key }, func(i int) uint64 { return recFP(in[i]) })
	rf.dropCounts()
	p := &streamPass{in: in, kept: make([]bool, n)}
	return &workload{pass: p, calls: []call{{
		op: "DedupStream", layer: "stream", records: n, requests: n, hashOnce: true,
		run: p.run,
		verify: func() (int, error) {
			if p.errs > 0 {
				return p.errs, fmt.Errorf("%d records returned an error", p.errs)
			}
			return checkKept(p.kept, rf.first, rf.distinct, p.distinct)
		},
	}}}
}

// result is the channel a submitted record's outcome arrives on.
type result = <-chan semisort.StreamResult[semisort.DedupKept]

// sampled is one stream record timed from Submit to result.
type sampled struct {
	c      result
	i      int
	t0, t1 time.Time
}

// streamPass is one closed-loop pass of the stream-ingest workload: one
// producer submits every record to a fresh DedupStream and, before each
// Submit, takes the result of the record submitted 2 batches earlier, so
// at most 2 batches of results are outstanding. Every latencyEvery-th
// record's result is taken instead by an observer goroutine, which
// timestamps its arrival.
type streamPass struct {
	in     []rec
	traced bool // time every Submit and every wait for a result

	// Outputs of the last pass, read by verify.
	kept     []bool
	errs     int
	distinct int

	// Accumulated over passes.
	latMS    []float64 // Submit to result of the sampled records
	spans    []sampled // every spanEvery-th record, traced run only
	submitNS int64     // time inside Submit (traced)
	waitNS   []int64   // per pass, producer waiting for results (traced)
	metrics  []semisort.StreamMetrics
}

// reset drops the figures accumulated so far, such as the warm-up's.
func (p *streamPass) reset() {
	p.latMS, p.spans, p.metrics, p.waitNS, p.submitNS = nil, nil, nil, nil, 0
}

func (p *streamPass) run(opts []semisort.Option) error {
	s := semisort.NewDedupStream[rec, uint64](key64, semisort.Hash64, eqU64,
		semisort.WithBatchSize(streamBatch), semisort.WithMaxWait(-1),
		semisort.WithStreamOptions(opts...))
	ring := make([]result, 2*streamBatch)
	sampledSlots := len(ring) / latencyEvery
	// Both channels hold at most the sampled records of one ring, so
	// neither side blocks on the other beyond the ring's own bound.
	observe := make(chan sampled, sampledSlots)
	acks := make(chan struct{}, sampledSlots)
	var observerErrs int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sm := range observe {
			res := <-sm.c
			sm.t1 = time.Now()
			p.latMS = append(p.latMS, float64(sm.t1.Sub(sm.t0).Nanoseconds())/1e6)
			if p.traced && sm.i%spanEvery == 0 {
				p.spans = append(p.spans, sm)
			}
			if res.Err != nil {
				observerErrs++
			} else {
				p.kept[sm.i] = res.Out.Kept
			}
			acks <- struct{}{}
		}
	}()

	p.errs = 0
	var submitNS, waitNS int64
	take := func(slot, i int) {
		c := ring[slot]
		if c == nil { // a sampled record: wait until the observer has it
			<-acks
			return
		}
		res := <-c
		if res.Err != nil {
			p.errs++
		} else {
			p.kept[i] = res.Out.Kept
		}
	}
	for i, r := range p.in {
		slot := i % len(ring)
		if i >= len(ring) {
			if p.traced {
				tw := time.Now()
				take(slot, i-len(ring))
				waitNS += time.Since(tw).Nanoseconds()
			} else {
				take(slot, i-len(ring))
			}
		}
		var c result
		switch {
		case i%latencyEvery == 0:
			t0 := time.Now()
			c = s.Submit(r)
			if p.traced {
				submitNS += time.Since(t0).Nanoseconds()
			}
			observe <- sampled{c: c, i: i, t0: t0}
			c = nil
		case p.traced:
			ts := time.Now()
			c = s.Submit(r)
			submitNS += time.Since(ts).Nanoseconds()
		default:
			c = s.Submit(r)
		}
		ring[slot] = c
	}
	for i := max(len(p.in)-len(ring), 0); i < len(p.in); i++ {
		take(i%len(ring), i)
	}
	close(observe)
	wg.Wait()
	err := s.Close()
	p.errs += observerErrs
	p.distinct = int(s.Distinct())
	p.submitNS += submitNS
	p.waitNS = append(p.waitNS, waitNS)
	p.metrics = append(p.metrics, s.Metrics())
	return err
}

GO ?= go

.PHONY: all check fmt vet build test multicpu fuzz race bench-steady bench bench-stats bench-paper

all: check

## check: everything CI runs — format, vet, build, test, multi-cpu and
## fuzz passes, short race pass
check: fmt vet build test multicpu fuzz race

## fmt: fail if any file is not gofmt-formatted
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## multicpu: the distribution engines, the string plane, the relational
## ops (their steady-alloc bounds must hold at every P layout), collect and
## the semisort core (their outputs must not depend on GOMAXPROCS), the
## baselines, and the streaming front end (its producer/flusher doorbell
## must hold at every P count) at GOMAXPROCS 1, 2 and 4
multicpu:
	$(GO) test -cpu 1,2,4 ./internal/dist ./internal/strkey ./internal/rel ./internal/collect ./internal/core ./internal/baseline/... ./internal/stream ./internal/chaos
	$(GO) test -cpu 1,2,4 -run Stream .

## fuzz: time-boxed fuzzing of the distribution engines against the
## stable reference, of the streaming dedup's batch splits against the
## one-shot answer, and of the fused join pipeline (its counting terminals
## run the count-join leaf) against a map reference
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDistributeEquivalence -fuzztime 30s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzStreamDedup -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzPipelineJoin -fuzztime 30s .

## race: race-detector pass on the runtime, the semisort core, sampling +
## distribution, the collect-reduce + relational terminal ops, the arena
## key plane, the streaming front end, and the stats plane
race:
	$(GO) test -race ./internal/parallel ./internal/core ./internal/sampling ./internal/dist ./internal/collect ./internal/rel ./internal/strkey ./internal/chaos ./internal/stream ./internal/obs .

## bench-steady: steady-state allocation benchmark (see EXPERIMENTS.md)
bench-steady:
	$(GO) test -bench SortEqSteadyState -benchtime 20x -run ^$$ .

## bench: steady-state suite at n=10^7 -> BENCH_steady.json (the perf
## trajectory each PR appends to; see EXPERIMENTS.md). Fails if any cell
## regresses more than 25% against the committed trajectory, so `make
## bench` doubles as the perf smoke gate (the baseline is read before the
## file is rewritten).
bench:
	$(GO) run ./cmd/semibench -json BENCH_steady.json -compare BENCH_steady.json -n 10000000
	$(GO) run ./cmd/semibench -stats -n 1000000 -out BENCH_stats.txt

## bench-stats: per-cell engine counters (levels, volumes, hash/probe/eq)
## at the full trajectory size — the qualitative companion to `make bench`
bench-stats:
	$(GO) run ./cmd/semibench -stats -n 10000000

## bench-paper: representative cells of every table/figure
bench-paper:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

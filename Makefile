GO ?= go

.PHONY: check fmt vet build loc test race bench bench-sched bench-sim bench-kernels bench-serve bench-stack bench-smoke accept profile-serve figures trace-demo vulncheck

# check is the CI gate: gofmt + vet + build + full tests + race pass over
# the concurrent packages (live runtime, lock-free deques, event rings,
# the kernels' pooled scratch).
check: fmt vet build test race

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# loc prints the one definition of the line counts that ROADMAP.md,
# CHANGES.md and BENCH_history.ndjson quote: non-test Go lines in the
# module, then in the two packages the serving-path items work on and in
# the kernels.
loc:
	@for p in . internal/gate internal/client internal/kernels; do \
		printf 'non-test Go lines in %s: %s\n' $$p "$$(find $$p -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runtime/... ./internal/deque/... ./internal/obs/... ./internal/task/... ./internal/history/... ./internal/server/... ./internal/fault/... ./internal/client/... ./internal/scale/... ./internal/trace/... ./internal/gate/... ./internal/harness/... ./internal/wire/... ./cmd/watsd/... ./cmd/watsload/... ./internal/kernels/...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-sched measures the scheduler hot path (DESIGN.md §7's table):
# spawn→execute throughput and per-worker class-statistics recording.
# 5 counts so a median survives machine noise.
bench-sched:
	$(GO) test -run xxx -bench 'BenchmarkSpawnParallel' -benchmem -count=5 ./internal/runtime/
	$(GO) test -run xxx -bench 'BenchmarkObserveParallel' -benchmem -count=5 ./internal/task/

# bench-sim measures the simulator (DESIGN.md §4's table): BenchmarkSimGrid
# walks the 108-run grid the repository benchmark's sim_fig6 workload
# times, so its ns/simulate and allocs/op reproduce that workload's
# numbers with plain go test.
bench-sim:
	$(GO) test -run xxx -bench 'SimGrid|SimulatorThroughput|Reorganize' -benchmem .

# bench-kernels times the three child kinds of a mix job at 4 KiB (bzip2
# and LZW round trips, SHA-1 + MD5), allocations included, cycling
# through 32 seeds' inputs as a job does: the repository benchmark's
# kernels.*_4k_ns repeat one input, which trains the caches and branch
# predictor and reads faster. BenchmarkBWT4K times BWT alone on the same
# inputs (the key sort), BenchmarkBWTWorstCase on two 64 KiB blocks it
# leaves to SA-IS. BenchmarkInput4K times a child's input
# synthesis, and BenchmarkKernelCosts one task of every kernel family at
# the sizes the simulator's task-class mixes were calibrated against;
# TestMixChildAllocCeilings fails the build if the mix allocations grow.
bench-kernels:
	$(GO) test -run xxx -bench 'Bzip2Like4K|BWT4K|BWTWorstCase|LZW4K|Digest4K|Input4K|KernelCosts' -benchmem -count=5 ./internal/kernels/

# bench-serve is the serving-path allocation gate (DESIGN.md §12, §13):
# the TestZeroAlloc* tests fail the build if a steady-state unary or batch
# admission allocates at all, TestUnaryHopAllocBudget if one whole unary
# job, direct or via the gate, allocates more than its ceiling, and the
# benchmarks print the ns/op + allocs/op table the design doc quotes
# (BenchmarkStreamClosedLoop: one stream, window 64, ns and allocs a job).
bench-serve:
	$(GO) test -run 'TestZeroAlloc' -count=1 -v ./internal/server/
	$(GO) test -run 'TestUnaryHopAllocBudget' -count=1 -v ./internal/gate/
	$(GO) test -run xxx -bench 'BenchmarkUnaryAdmission|BenchmarkBatchAdmission16|BenchmarkStreamClosedLoop' -benchmem ./internal/server/

# bench-stack is the repository benchmark (BENCHMARK.json, bench/README.md):
# six workloads from the whole stack down to the simulator, end-to-end
# and per-layer metrics. bench-smoke is its CI form: 3 s a workload, and
# it fails unless all six report "correct":true — absolute numbers do not
# survive a shared runner, correctness does.
bench-stack:
	$(GO) run ./bench

bench-smoke:
	mkdir -p out
	$(GO) run ./bench -seconds 3 | tee out/bench-smoke.txt
	test "$$(grep -c '"correct":true' out/bench-smoke.txt)" -eq 6

# accept runs the acceptance scenarios behind the committed
# BENCH_{serve,elastic,gate,chaos,live,twin}.json (cmd/watsaccept; each
# scenario file states its hypothesis and gates): batch/stream vs unary
# admission (DESIGN.md §12), the elastic pool vs a fixed one (§10),
# workload-aware routing vs baselines plus failover (§13), gray-failure
# defences (§14), the paper's policies on live runtimes (EXPERIMENTS.md),
# the digital twin's replay of a captured run (§11). Every run also
# checks job conservation at every layer. SCENARIO=gate runs one;
# `go run ./cmd/watsaccept -scenario all -check -out .` regenerates the
# committed artifacts.
SCENARIO ?= all
accept:
	$(GO) run ./cmd/watsaccept -scenario $(SCENARIO) -check -out out/accept

# profile-serve writes an alloc profile of the admission benchmarks to
# out/serve.alloc.pprof — `go tool pprof -sample_index=alloc_objects`
# it to hunt admission-path allocations.
profile-serve:
	mkdir -p out
	$(GO) test -run xxx -bench 'BenchmarkUnaryAdmission|BenchmarkBatchAdmission16' -memprofile out/serve.alloc.pprof -o out/server.test ./internal/server/

figures:
	$(GO) run ./cmd/watsbench -experiment all -seeds 5

# trace-demo writes a sample Chrome trace of the forkjoin example's
# island-GA run — load out/trace-demo.json in ui.perfetto.dev. Demo
# artifacts live under the gitignored out/ directory, not the repo root.
trace-demo:
	mkdir -p out
	$(GO) run ./examples/forkjoin -trace out/trace-demo.json

# vulncheck needs network access to the vuln DB, so it is CI-only by
# default; run it locally the same way when online.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

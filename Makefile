GO ?= go

.PHONY: check fmt vet build test race bench bench-sched bench-sim bench-serve serve-bench-demo profile-serve figures trace-demo serve-demo chaos-demo scale-demo twin-demo gate-demo gate-chaos-demo vulncheck

# check is the CI gate: gofmt + vet + build + full tests + race pass over
# the concurrent packages (live runtime, lock-free deques, event rings).
check: fmt vet build test race

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runtime/... ./internal/deque/... ./internal/obs/... ./internal/task/... ./internal/history/... ./internal/server/... ./internal/fault/... ./internal/client/... ./internal/scale/... ./internal/trace/... ./internal/gate/... ./internal/netfault/... ./cmd/watsd/...

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

# bench-serve is the admission-path allocation gate (DESIGN.md §12): the
# TestZeroAlloc* tests fail the build if a steady-state unary or batch
# admission allocates at all, and the benchmarks print the ns/op +
# allocs/op table the design doc quotes.
bench-serve:
	$(GO) test -run 'TestZeroAlloc' -count=1 -v ./internal/server/
	$(GO) test -run xxx -bench 'BenchmarkUnaryAdmission|BenchmarkBatchAdmission16' -benchmem ./internal/server/

# serve-bench-demo is the throughput acceptance run behind the committed
# BENCH_serve.json: one in-process stack, the noop control workload,
# unary vs batch vs streaming submission under equal concurrency.
# -check enforces the headline: batch or stream >= 2x unary jobs/sec.
serve-bench-demo:
	$(GO) run ./cmd/servebench -check -out /tmp/BENCH_serve.json

# profile-serve writes an alloc/heap profile of a servebench run to
# out/serve.alloc.pprof — `go tool pprof -sample_index=alloc_objects`
# it to hunt admission-path allocations.
profile-serve:
	mkdir -p out
	$(GO) run ./cmd/servebench -duration 1s -memprofile out/serve.alloc.pprof

figures:
	$(GO) run ./cmd/watsbench -experiment all -seeds 5

# trace-demo writes a sample Chrome trace of the forkjoin example's
# island-GA run — load out/trace-demo.json in ui.perfetto.dev. Demo
# artifacts live under the gitignored out/ directory, not the repo root.
trace-demo:
	mkdir -p out
	$(GO) run ./examples/forkjoin -trace out/trace-demo.json

# serve-demo is the service-layer smoke test: build watsd + watsload with
# build info stamped in, start the daemon, throw a 2s open-loop burst at
# it (watsload exits 1 if nothing completes), check the job histograms
# landed on /metrics, then SIGTERM and require a clean drain.
serve-demo:
	$(GO) build -ldflags "-X wats/internal/server.version=$$(git describe --tags --always --dirty 2>/dev/null || echo dev) -X wats/internal/server.commit=$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" -o /tmp/watsd ./cmd/watsd
	$(GO) build -o /tmp/watsload ./cmd/watsload
	/tmp/watsd -listen 127.0.0.1:18080 & echo $$! > /tmp/watsd.pid; \
	  trap 'kill $$(cat /tmp/watsd.pid) 2>/dev/null || true' EXIT; \
	  for i in $$(seq 50); do curl -sf http://127.0.0.1:18080/v1/healthz >/dev/null && break; sleep 0.1; done; \
	  curl -sf http://127.0.0.1:18080/v1/version; echo; \
	  /tmp/watsload -addr http://127.0.0.1:18080 -rate 200 -duration 2s && \
	  curl -sf http://127.0.0.1:18080/metrics | grep -E '^wats_jobs_total' && \
	  kill -TERM $$(cat /tmp/watsd.pid) && wait $$(cat /tmp/watsd.pid)

# chaos-demo is the fault-tolerance acceptance run: watsd with 1%%
# injected task panics plus delays, overloaded by a retrying chaos
# client. The daemon must survive the whole burst (panicked jobs are
# structured 500s, not crashes), watsload must still complete jobs
# through the retry path, the exact injected-panic count must land on
# /metrics, and SIGTERM must still drain cleanly.
chaos-demo:
	$(GO) build -o /tmp/watsd ./cmd/watsd
	$(GO) build -o /tmp/watsload ./cmd/watsload
	/tmp/watsd -listen 127.0.0.1:18081 -fault panic=0.01,delay=0.02:2ms -stall-threshold 5s & echo $$! > /tmp/watsd-chaos.pid; \
	  trap 'kill $$(cat /tmp/watsd-chaos.pid) 2>/dev/null || true' EXIT; \
	  for i in $$(seq 50); do curl -sf http://127.0.0.1:18081/v1/readyz >/dev/null && break; sleep 0.1; done; \
	  /tmp/watsload -addr http://127.0.0.1:18081 -rate 400 -duration 2s -chaos -retries 3 && \
	  curl -sf http://127.0.0.1:18081/v1/healthz && echo && \
	  curl -sf http://127.0.0.1:18081/metrics | grep -E '^wats_(panics_total|jobs_total\{status="panicked"\})' && \
	  kill -TERM $$(cat /tmp/watsd-chaos.pid) && wait $$(cat /tmp/watsd-chaos.pid)

# scale-demo is the elastic-runtime acceptance run (DESIGN.md §10): the
# same bursty open-loop load against a fixed 16-worker pool and an
# autoscaled 2..16 pool, in-process over real HTTP. -check enforces the
# gate — the autoscaler must hold steady-state p99 within 2x of the
# peak-provisioned pool on at most 60% of its worker-seconds, grow and
# shrink back to min, and lose zero jobs. The committed BENCH_elastic.json
# is this run's artifact.
scale-demo:
	$(GO) run ./cmd/scaledemo -check -out /tmp/BENCH_elastic.json

# twin-demo is the digital-twin acceptance run (DESIGN.md §11): watsd
# serves a 3s open-loop run with the decision ledger streaming to
# out/twin-capture.ndjson, then watstwin replays the capture under all
# eight policies (plus swept WATS parameters) twice with the same seed.
# The gates: the twin's p99 under the live policy must land within 15%
# of the live ledger's, the two reports must be byte-identical
# (determinism), and the report must name a best policy. The committed
# BENCH_twin.json is this run's ranked-deltas artifact.
#
# The load rate is deliberately modest (40 jobs/s): the twin models the
# emulated 2+2 asymmetric machine, not the CI host's real core count, so
# the live side must stay below the host's saturation point or its p99
# becomes host-queueing time the twin cannot (and should not) reproduce.
# DESIGN.md §11 covers this fidelity-envelope argument.
twin-demo:
	$(GO) build -o /tmp/watsd ./cmd/watsd
	$(GO) build -o /tmp/watsload ./cmd/watsload
	$(GO) build -o /tmp/watstwin ./cmd/watstwin
	mkdir -p out
	/tmp/watsd -listen 127.0.0.1:18082 -capture out/twin-capture.ndjson & echo $$! > /tmp/watsd-twin.pid; \
	  trap 'kill $$(cat /tmp/watsd-twin.pid) 2>/dev/null || true' EXIT; \
	  for i in $$(seq 50); do curl -sf http://127.0.0.1:18082/v1/healthz >/dev/null && break; sleep 0.1; done; \
	  curl -sf http://127.0.0.1:18082/v1/healthz | grep -o '"capture":[^,]*' && \
	  /tmp/watsload -addr http://127.0.0.1:18082 -rate 40 -duration 3s && \
	  kill -TERM $$(cat /tmp/watsd-twin.pid) && wait $$(cat /tmp/watsd-twin.pid) || exit 1
	/tmp/watstwin -trace out/twin-capture.ndjson -seed 1 -out out -max-fidelity-gap 15
	cp out/twin-report.json out/twin-report.first.json
	/tmp/watstwin -trace out/twin-capture.ndjson -seed 1 -out out -quiet
	cmp out/twin-report.first.json out/twin-report.json
	grep -q '"best": "' out/twin-report.json
	cp out/twin-report.json BENCH_twin.json

# gate-demo is the cluster-routing acceptance run (DESIGN.md §13): three
# in-process watsd nodes with different machine shapes behind one
# watsgate, driven by a mixed-class open-loop load under each routing
# policy. -check enforces the gates — the workload-aware weighted policy
# must beat both round-robin and least-loaded on steady-state heavy-class
# p99 by the configured margin, and the mid-run backend kill/restart must
# lose zero acknowledged jobs while re-routing and then re-including the
# recovered node. The committed BENCH_gate.json is this run's artifact.
gate-demo:
	$(GO) run ./cmd/gatedemo -check -out /tmp/BENCH_gate.json

# gate-chaos-demo is the gray-failure acceptance run (DESIGN.md §14):
# three identical in-process watsd nodes behind one watsgate, one node
# turned gray mid-run by the deterministic netfault injector (240ms
# added latency + dripped responses — readiness and self-reported
# exec_ms stay clean). -check enforces the gates: the healthy window
# pays no hedging tax, the degraded-window p99 with hedging + retry
# budget + outlier ejection on is at most half the undefended p99, the
# victim is ejected and probe-readmitted, retry volume stays within the
# budget, no job is acknowledged twice (decision-ledger witness), and
# the injected fault counts replay exactly from the seed. The committed
# BENCH_chaos.json is this run's artifact.
gate-chaos-demo:
	$(GO) run ./cmd/gatechaos -check -out /tmp/BENCH_chaos.json

# vulncheck needs network access to the vuln DB, so it is CI-only by
# default; run it locally the same way when online.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

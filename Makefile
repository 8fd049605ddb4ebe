GO ?= go

# BENCHTIME is the per-benchmark budget; CI smoke-runs with 100ms so the
# benchmarks are compiled and executed on every PR without burning
# minutes.
BENCHTIME ?= 2s
# FUZZTIME is the per-target budget for fuzz-smoke.
FUZZTIME ?= 10s

# Pinned static-analysis tool versions; `make lint` and the CI lint job
# run exactly these via `go run`, so there is no drift between the two.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: verify build vet test perfbench-test fmt lint e2e e2e-stream bench bench-json fuzz-smoke examples docs-check loc serve ci

# verify is the tier-1 gate: everything must build, vet clean, and pass.
verify: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench-test runs the repo benchmark's own tiny-scale tests. perfbench
# is a nested module (it imports this one through a replace directive),
# so `go test ./...` above never reaches it.
perfbench-test:
	cd perfbench && GOPROXY=off $(GO) test .

# fmt fails when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs staticcheck and govulncheck at the pinned versions above.
# Both are fetched through the module cache on first use (network needed
# once); neither is added to go.mod.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# e2e boots a real 3-shard rf=2 dpcd ring with heartbeats plus a
# single-node reference and proves forwarding parity, replication, and
# the chaos contract — a primary SIGKILLed mid-stream costs zero failed
# assigns and zero refits, and the heartbeat evicts it without any
# manual membership post (scripts/e2e_ring.sh). CHAOS_N sizes the chaos
# stream; CI uses 4194304, the default 200000 keeps local runs quick.
e2e:
	$(if $(CHAOS_N),CHAOS_N=$(CHAOS_N)) ./scripts/e2e_ring.sh

# e2e-stream streams 4x the per-request batch cap through a non-owner
# ring shard and proves the labels are byte-identical to the capped
# batch path, with zero refits (scripts/e2e_stream.sh). STREAM_N=40000
# makes a quick local run.
e2e-stream:
	$(if $(STREAM_N),STREAM_N=$(STREAM_N)) ./scripts/e2e_stream.sh

# bench runs the memory-layout micro-benchmarks (flat Dataset vs row
# slices; committed baseline in BENCH_flat_layout.json), the kd-tree
# build at one worker and every CPU, Ex-DPC's density pass on the 20k
# S2 and PAMAP2 stand-ins as per-point range counts and as the
# leaf-pair self-join (BenchmarkSelfCounts), the grid build Approx-DPC runs on
# the 20k PAMAP2 stand-in, Approx-DPC's and S-Approx-DPC's fits on the 20k
# S2 stand-in, the density index's build, re-cut and
# sliding-window update on the same stand-in, the serving layer
# benchmarks (cached fit, assign batch, snapshot cold start), and the
# param-sweep experiment (one density index vs K fresh fits; committed
# record in BENCH_param_sweep.json).
# SWEEPN sizes the sweep dataset; CI smoke-runs it small.
SWEEPN ?= 20000
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSqDist|ExDPC(Rows|Flat)' -benchmem -benchtime=$(BENCHTIME) .
	$(GO) test -run '^$$' -bench 'BenchmarkBuildAll|BenchmarkSelfCounts' -benchmem -benchtime=$(BENCHTIME) ./internal/kdtree
	$(GO) test -run '^$$' -bench 'BenchmarkGridBuild' -benchmem -benchtime=$(BENCHTIME) ./internal/grid
	$(GO) test -run '^$$' -bench 'BenchmarkCore(S)?ApproxDPCS2' -benchmem -benchtime=$(BENCHTIME) ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkBuild|BenchmarkCut|BenchmarkUpdate' -benchmem -benchtime=$(BENCHTIME) ./internal/densindex
	$(GO) test -run '^$$' -bench 'BenchmarkService' -benchmem -benchtime=$(BENCHTIME) ./internal/service
	$(GO) run ./cmd/dpcbench -exp sweep -n $(SWEEPN)
	$(GO) run ./cmd/dpcbench -exp drift

# bench-json records a machine-readable harness run for before/after
# comparisons.
bench-json:
	$(GO) run ./cmd/dpcbench -exp table3,table6 -n 10000 -json BENCH_dpcbench.json
	$(GO) run ./cmd/dpcbench -exp sweep -n $(SWEEPN) -sweep-json BENCH_param_sweep.json

# fuzz-smoke runs each fuzz target briefly over its committed corpus —
# the upload parsers, the snapshot decoder, the snapshot installers
# every warm load runs (restart, rebalance and replica ship), the wire
# frame decoder, the Ex-DPC-equals-Scan oracle on tie-heavy point sets,
# and the kd-tree-equals-brute-force oracle for every tree query. The
# two snapshot targets also re-frame each input behind a valid header
# and CRC-32, so mutations reach the payload decoders. `go test -fuzz`
# takes one target per invocation, hence the seven runs. Each new interesting input is minimized for at
# most 100 runs: at go test's default of 60s, the first find used up the
# rest of the budget while no new input ran.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCSV$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/data
	$(GO) test -run '^$$' -fuzz '^FuzzLoadBinary$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/data
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzInstallSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzExDPCMatchesScan$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzKDTreeMatchesBrute$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/kdtree

# examples builds and runs every directory under examples/ — each one is
# self-verifying and exits non-zero when the behavior it demonstrates
# does not hold (scripts/examples_smoke.sh).
examples:
	./scripts/examples_smoke.sh

# docs-check verifies every relative markdown link in README.md, docs/,
# ROADMAP.md, and CHANGES.md points at a file that exists, including
# #anchors into headings. Pure shell+awk; no network, nothing installed.
docs-check:
	./scripts/docs_check.sh

# loc prints non-blank, non-comment, non-test Go lines per package and
# their total (scripts/loc.sh): the count ROADMAP's line gates cite. Pure
# shell+awk. LOC_DIRS limits it, e.g. LOC_DIRS="internal/geom internal/core".
loc:
	./scripts/loc.sh $(LOC_DIRS)

# serve runs the dpcd clustering daemon on a bundled dataset; see the
# README "Serving: dpcd" section for the API and a curl session. Add
# DATA_DIR=/path for a durable daemon that warm-loads on restart.
serve:
	$(GO) run ./cmd/dpcd -preload pamap2:20000,s2:5000 -addr :8080 $(if $(DATA_DIR),-data-dir $(DATA_DIR))

# ci mirrors the GitHub Actions test job (.github/workflows/ci.yml):
# gofmt, build, vet, race-detector tests, the perfbench module's tests,
# and the arm64 cross-build.
ci: fmt build vet
	$(GO) test -race ./...
	$(MAKE) perfbench-test
	GOOS=linux GOARCH=arm64 $(GO) build ./...

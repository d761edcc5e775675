# Development workflow. `make verify` is the tier-1 gate: build, vet,
# formatting, the full test suite, the race subset that hammers the
# engines and the batch executor concurrently, the nested perfbench
# module (which the root ./... patterns do not reach) and a run of every
# example program. `make verify-full` adds
# the per-package coverage report and a fuzz smoke pass over every
# native fuzz target.

GO ?= go
FUZZTIME ?= 30s

# pkg:Target pairs smoke-tested by fuzz-smoke.
FUZZ_TARGETS = \
	./internal/geom:FuzzSegmentInside \
	./internal/geom:FuzzPolygonContains \
	./internal/geom:FuzzVGraphDist \
	./internal/query:FuzzTopK \
	./internal/spacegen:FuzzGenerate \
	./internal/enginetest:FuzzDifferentialEngines \
	./internal/moving:FuzzMonitorStream \
	./internal/server:FuzzQueryResponseJSON \
	./internal/server:FuzzUpdatesBody \
	./internal/tenant:FuzzRouter

.PHONY: verify verify-full build vet fmt-check test race perfbench-check examples cover fuzz-smoke bench-smoke perf bench-compare

verify: build vet fmt-check test race perfbench-check examples

verify-full: verify cover fuzz-smoke bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$files"; exit 1; \
	fi

test:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race ./internal/enginetest/ ./internal/exec/ ./internal/obs/ ./internal/server/ ./internal/spacegen/ ./internal/oracle/ ./internal/doorgraph/ ./internal/reach/ ./internal/temporal/ ./internal/moving/ ./internal/tenant/ ./internal/idindex/ ./internal/iptree/

# perfbench is its own module (perfbench/go.mod), so build/vet/test above
# never compile it; it imports internal/query, the oracle and the server.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Runs every program under examples/ and fails on the first non-zero exit.
# Only the exit status is checked: model-compare and poisearch print timings.
examples:
	@set -e; for dir in examples/*/; do \
		echo "example $${dir%/}"; \
		$(GO) run ./$${dir%/} > /dev/null; \
	done

# Per-package coverage, teed to COVER_REPORT.txt for review. The moving
# package (the continuous-query engine) carries a hard floor: its harness
# is the PR 10 gate, so falling under 85% fails the build.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./... | tee COVER_REPORT.txt
	$(GO) tool cover -func=cover.out | tail -1 | tee -a COVER_REPORT.txt
	@pct=$$(grep 'indoorsq/internal/moving\b' COVER_REPORT.txt | grep -o '[0-9.]*% of statements' | grep -o '^[0-9.]*'); \
	if [ -z "$$pct" ]; then echo "cover: no coverage row for internal/moving"; exit 1; fi; \
	ok=$$(awk -v p="$$pct" 'BEGIN { print (p >= 85) ? 1 : 0 }'); \
	if [ "$$ok" != "1" ]; then echo "cover: internal/moving at $$pct% < 85% floor"; exit 1; fi; \
	echo "cover: internal/moving at $$pct% (floor 85%)"

# Short fuzz pass over every native fuzz target ($(FUZZTIME) each);
# -short keeps the non-fuzz parts of each package out of the run.
fuzz-smoke:
	@set -e; for entry in $(FUZZ_TARGETS); do \
		pkg=$${entry%:*}; fn=$${entry#*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test -short -run '^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME) $$pkg; \
	done

# Runs every cmd/isqperf scenario (cache ctx obs graph reach snap route
# host move paper) at full size and writes one report. Each scenario's answer gate
# runs before its timing. Every bound gets a verdict: pass, fail, or (a
# timing bound whose interval straddles its limit) unresolved. The command
# logs the count of each, then exits 1, after writing the report, if any
# bound failed or is unresolved. `make test` runs the same gates on tiny
# venues (TestSmoke).
perf:
	$(GO) run ./cmd/isqperf -o BENCH_PERF.json

# Per-metric deltas between two cmd/isqperf reports, old then new:
#   make bench-compare A=old.json B=new.json
bench-compare:
	$(GO) run ./cmd/isqperf compare $(A) $(B)

# Quick compile-and-run pass over the heap and door-graph benchmarks, the
# query, update and monitor-result handlers' allocation benchmarks, the
# stream batch-apply and host-scan benchmarks, the committed router's
# choose+observe hot path (a handful of iterations each) and the root
# package's ablation and extension benchmarks (one iteration each), just to
# keep the benchmark code from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=10x ./internal/pq/ ./internal/doorgraph/
	$(GO) test -run '^$$' -bench='BenchmarkQueryHandler|BenchmarkUpdatesHandler|BenchmarkMonitorResult' -benchtime=10x -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench='BenchmarkApplyBatch|BenchmarkHostPartition' -benchtime=10x -benchmem ./internal/moving/ ./internal/indoor/
	$(GO) test -run '^$$' -bench='BenchmarkRouterRouted' -benchtime=10x -benchmem ./internal/tenant/
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

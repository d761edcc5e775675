# Development workflow. `make verify` is the tier-1 gate: build, vet,
# formatting, the full test suite, the race subset that hammers the
# engines and the batch executor concurrently, and the nested perfbench
# module (which the root ./... patterns do not reach). `make verify-full` adds
# the per-package coverage report and a fuzz smoke pass over every
# native fuzz target.

GO ?= go
FUZZTIME ?= 30s

# pkg:Target pairs smoke-tested by fuzz-smoke.
FUZZ_TARGETS = \
	./internal/geom:FuzzSegmentInside \
	./internal/geom:FuzzVGraphDist \
	./internal/query:FuzzTopK \
	./internal/spacegen:FuzzGenerate \
	./internal/enginetest:FuzzDifferentialEngines \
	./internal/moving:FuzzMonitorStream

.PHONY: verify verify-full build vet fmt-check test race perfbench-check cover fuzz-smoke bench-smoke bench-pr2 bench-pr3 bench-pr4 bench-pr6 bench-pr7 bench-pr7-smoke bench-pr8 bench-pr8-smoke bench-pr9 bench-pr9-smoke bench-pr10 bench-pr10-smoke

verify: build vet fmt-check test race perfbench-check

verify-full: verify cover fuzz-smoke bench-smoke bench-pr7-smoke bench-pr8-smoke bench-pr9-smoke bench-pr10-smoke

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
	$(GO) test -race ./internal/enginetest/ ./internal/exec/ ./internal/obs/ ./internal/server/ ./internal/spacegen/ ./internal/oracle/ ./internal/doorgraph/ ./internal/reach/ ./internal/temporal/ ./internal/moving/ ./internal/tenant/

# perfbench is its own module (perfbench/go.mod), so build/vet/test above
# never compile it; it imports internal/query, the oracle and the server.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

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

# Regenerates the distance-cache before/after report of PR 2.
bench-pr2:
	$(GO) run ./cmd/isqcachebench -o BENCH_PR2.json

# Regenerates the context-tracking overhead report of PR 3.
bench-pr3:
	$(GO) run ./cmd/isqctxbench -o BENCH_PR3.json

# Regenerates the observability-layer overhead report of PR 4.
bench-pr4:
	$(GO) run ./cmd/isqobsbench -o BENCH_PR4.json

# Regenerates the CSR door-graph / Dijkstra hot-path report of PR 6.
# Covers venues at ~10^3, 10^4 and 10^5 doors; the 100k build takes a while.
bench-pr6:
	$(GO) run ./cmd/isqgraphbench -o BENCH_PR6.json

# Regenerates the reachability-pruning report of PR 7: visited doors and
# ns/op, pruned vs unpruned, across one-way fractions and a closed-wing
# temporal schedule. Answers are asserted identical in-tool.
bench-pr7:
	$(GO) run ./cmd/isqreachbench -o BENCH_PR7.json

# Tiny-venue run of the same tool; keeps it from rotting and re-asserts
# pruned/unpruned answer equality under verify-full.
bench-pr7-smoke:
	$(GO) run ./cmd/isqreachbench -smoke

# Regenerates the snapshot subsystem report of PR 8: cold engine build vs
# snapshot load (wall clock, peak RSS via re-exec'd children) at ~10^3,
# 10^4 and 10^5 doors, plus POST /v1/swap latency under concurrent load.
bench-pr8:
	$(GO) run ./cmd/isqsnapbench -o BENCH_PR8.json

# Tiny-venue pass of the same tool for verify-full: one build/save/load
# cycle asserting loaded engines answer bit-identically, plus three
# hot swaps under load.
bench-pr8-smoke:
	$(GO) run ./cmd/isqsnapbench -smoke

# Regenerates the multi-venue routing report of PR 9: routed vs pinned
# p95 per engine on a skewed three-venue workload, with each venue's final
# per-query-class decision table. Answers are asserted identical in-tool.
bench-pr9:
	$(GO) run ./cmd/isqroutebench -o BENCH_PR9.json

# Tiny two-venue pass of the same tool for verify-full: re-asserts
# routed answers match every pinned engine and the routers reach a
# decision for all three query classes.
bench-pr9-smoke:
	$(GO) run ./cmd/isqroutebench -smoke

# Regenerates the streaming continuous-query report of PR 10: the sharded
# inverted-index stream vs the scan-all baseline at 10^5-10^6 objects and
# 10^3-10^4 standing monitors, with event-stream equality asserted before
# timing and the >= 10x speedup bound enforced at 10^4 monitors.
bench-pr10:
	$(GO) run ./cmd/isqmovebench -o BENCH_PR10.json

# Tiny-venue pass of the same tool for verify-full: re-asserts the indexed
# and scan-all event streams are identical, no speedup bound.
bench-pr10-smoke:
	$(GO) run ./cmd/isqmovebench -smoke

# Quick compile-and-run pass over the heap and door-graph benchmarks: a
# handful of iterations each, just to keep the benchmark code from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=10x ./internal/pq/ ./internal/doorgraph/

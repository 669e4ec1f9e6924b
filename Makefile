GO ?= go

# Tier-1 verification: everything CI (and the next PR's author) must keep
# green. `race` exercises the experiment engine's worker pool across all
# packages; the exp tests include worker-count-invariance and golden-file
# checks, so this target is the full reproducibility gate. `lint` is the
# invariant gate: sniclint builds the whole-module call graph and
# enforces the isolation-boundary, transitive-determinism,
# lock-discipline, factory, seed, and stdlib-only rules the goldens
# depend on (see DESIGN.md "Enforced invariants").
.PHONY: verify
verify: build vet lint test race fleet bench-test

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# Static invariant checks (sniclint -list describes each check ID).
.PHONY: lint
lint:
	$(GO) run ./cmd/sniclint ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# The benchmark harness is its own module (it builds against this one
# through a replace directive), so `go test ./...` never reaches it: run
# its package tests from its directory.
.PHONY: bench-test
bench-test:
	(cd bench && $(GO) test .)

# Fleet scenario gate: the numbered end-to-end suite under the race
# detector (a live snicd API served over real HTTP per scenario), plus a
# coverage floor on the control plane. The floor is deliberately below
# the current number — it catches a PR that deletes the scenario or
# property suites, not normal drift. Regenerate scenario goldens after
# an intentional control-plane change with:
#   go test ./internal/fleet/scenarios -update
FLEET_COVER_FLOOR ?= 70
.PHONY: fleet
fleet:
	$(GO) test -race -coverprofile=fleet.cover -coverpkg=./internal/fleet/... ./internal/fleet/...
	@total=$$($(GO) tool cover -func=fleet.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f fleet.cover; \
	echo "internal/fleet coverage: $$total% (floor $(FLEET_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(FLEET_COVER_FLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' || \
		{ echo "internal/fleet coverage $$total% fell below the $(FLEET_COVER_FLOOR)% floor" >&2; exit 1; }

# Go line counts the way ROADMAP reports them: files tracked by git,
# outside bench/ and testdata/, split into production and test code,
# plus the number of functions no shipped program reaches (the
# allowlist TestEveryFunctionIsReached keeps). Information only;
# nothing gates on it.
.PHONY: loc
loc:
	@files=$$(git ls-files '*.go' | grep -v -e '^bench/' -e testdata); \
	echo "production: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l) lines"; \
	echo "test:       $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l) lines"; \
	echo "unreached:  $$(wc -l < internal/lint/testdata/unreached.txt) functions"

.PHONY: fmt
fmt:
	gofmt -w .

# Regenerate the committed golden renderings after an intentional change
# to a model constant, a workload, or a table format.
.PHONY: golden
golden:
	$(GO) test ./internal/exp -update

# Repository-level benchmarks: one per table/figure, plus ablations and
# the engine parallel-vs-serial speedup pair. The run is recorded as a
# stdlib-only JSON summary in BENCH_<BENCH_PR>.json (section "post" by
# convention; record a pre-change tree with BENCH_SECTION=baseline) and
# compared with `snicperf` — see EXPERIMENTS.md "Benchmark trajectory".
# BENCH_PR has no default, so a bare run cannot overwrite an old ledger.
BENCH_FILE = BENCH_$(BENCH_PR).json
BENCH_SECTION ?= post
BENCH_PATTERN ?= .
.PHONY: bench
bench:
	@[ -n "$(BENCH_PR)" ] || { echo "usage: make bench BENCH_PR=<n> [BENCH_SECTION=baseline|post] [BENCH_PATTERN=<regexp>]" >&2; exit 2; }
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem . | tee /dev/stderr | \
		$(GO) run ./cmd/snicperf -record -o $(BENCH_FILE) -section $(BENCH_SECTION) -pr $(BENCH_PR)

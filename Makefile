GO ?= go
BENCH_OUT ?= BENCH_run.json

.PHONY: build test check race vet bench bench-compare conformance deploy-demo fleet-demo loadtest shardsmoke loc reach placement clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the PR gate: static analysis plus the full suite under the race
# detector (concurrent best-of restarts and the per-Optimizer workspace
# ownership rule are only meaningfully exercised with -race on).
check: vet race

# bench runs the evaluation-pipeline benchmark suite and writes a JSON
# snapshot of this machine's numbers to $(BENCH_OUT). Checked-in
# BENCH_pr*.json files pair one such snapshot with the numbers captured
# before that PR's change, in the same schema.
bench:
	./scripts/bench.sh $(BENCH_OUT) none

# bench-compare additionally prints a prev-vs-now table against the
# newest checked-in BENCH_pr*.json (its "after" numbers).
bench-compare:
	./scripts/bench.sh $(BENCH_OUT)

# conformance runs the declarative scenario corpus: schema validation,
# the confgen drift check, then every corpus case through the public
# optimizer API under the corpus's execution matrix with every declared
# invariant checked. CONF_SOLVERS / CONF_WORKERS narrow the matrix (CI
# runs one worker count per matrix job).
conformance:
	./scripts/conformance.sh

# deploy-demo exercises the whole closed serving loop in one process —
# deploy a plan, drift it, auto-re-optimize with a warm start, hot-swap —
# and exits nonzero if any stage fails.
deploy-demo:
	$(GO) run ./cmd/deploydemo

# fleet-demo runs the fleet path end to end through cmd/serve: a K=3
# joint fleet job and a single-sensor job for the same problem over
# HTTP, then requires the joint plan to beat the single plan replicated
# K times on simulated union coverage.
fleet-demo:
	./scripts/fleetsmoke.sh

# loadtest hammers the plan library's batched exact-hit read path over
# real HTTP and fails if the p99 request latency breaches the SLO
# (PLANLOAD_SLO, default 10ms).
loadtest:
	./scripts/loadtest.sh

# shardsmoke boots a three-node serve cluster sharing one checkpoint
# store, runs a 12-restart job through the shard/lease protocol, and
# fails unless every node serves a plan byte-identical to a
# single-process run and all processes drain cleanly on SIGTERM.
shardsmoke:
	./scripts/shardsmoke.sh

# loc prints the non-test Go lines of every package of the module and
# their total: the line ledger a change reports next to its benchmarks.
# The benchmark under perfbench/ is a module of its own and not counted.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		n=0; [ -z "$$files" ] || n=$$(cat $$files | wc -l); \
		printf '%7d %s\n' "$$n" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# reach prints the reachability ledger: every shipped entry point (the
# examples, the CLIs, the smokes, the conformance run and the perfbench
# workloads) runs once on coverage-instrumented binaries, and the
# functions none of them ran are listed by package and file with counts.
# Informational; it always exits 0.
reach:
	./scripts/reach.sh

# placement prints how much of the dense-kernel and gradient benchmark
# rows is code placement: builds of one commit (default HEAD, exported
# with git archive) that differ only in a padding function ahead of the
# mat kernels, run interleaved, with the min/median/max and spread per
# row. Informational; scripts/placement.sh describes the method.
placement:
	./scripts/placement.sh

clean:
	$(GO) clean ./...

# Developer entry points. `make ci` is the whole gate, and it is tier-1
# plus vet: every other check is a Go test that `go test ./...` runs —
# gofmt over the repository, the benchmark module's vet and tests, every
# CLI's exit codes and output determinism, the single-thread and no-unsafe
# guards that leave a race detector nothing to find, and the exact
# comparison of every experiment's simulated metrics and result cells
# against the committed BENCH.json. `make bench` rewrites BENCH.json and
# the generated blocks of EXPERIMENTS.md.

GO ?= go

.PHONY: ci vet build test bench

ci: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench rewrites BENCH.json, the committed full-scale snapshot of all
# twelve experiments, then EXPERIMENTS.md's generated blocks (result
# tables and ✔/◐/✘ verdict lines) from it. Run it in the PR that moves a
# simulated quantity and commit both: the diffs are the drift report.
# Simulated metrics are deterministic; only wall_ns, created_wall and host
# vary run to run.
bench:
	$(GO) run ./cmd/mifbench -bench-json BENCH.json all
	$(GO) run ./cmd/mifbench report BENCH.json EXPERIMENTS.md

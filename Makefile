# Developer entry points. `make ci` is the full gate: formatting, vet,
# build, the test suite under the race detector, the benchmark module's
# own vet and tests, the end-to-end smoke run of the CLI tools, and the
# exact comparison of every experiment's simulated metrics and result
# cells against the committed BENCH.json. `make bench` rewrites that file
# and the generated blocks of EXPERIMENTS.md.

GO ?= go

.PHONY: ci fmt vet build test race benchtest smoke racesmoke bench benchcheck

ci: fmt vet build race benchtest smoke racesmoke benchcheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchtest vets and tests bench/, the benchmark BENCHMARK.json declares. It
# is a module of its own that imports redbud/internal/..., so `./...` from
# the root does not reach it: a signature change under internal/ that breaks
# the benchmark's build passes every other leg.
benchtest:
	cd bench && $(GO) vet . && $(GO) test .

# smoke exercises the built binaries end to end on a small deterministic
# config: the defrag recovery benchmark, the client-cache benchmark (cache
# off vs on over the same request sequence), an offline check of a
# crash-consistent metadata image saved after a defrag-style rewrite
# (exit 2: journal replay repaired it), an offline check of an image
# populated through a client-cached mount (the flush barriers wrote all
# of its metadata; exit 0: clean), an offline check of a defrag-aged
# image (exit 0: clean), a small crash-point sweep run twice to
# guard report determinism, a trace replay under injected message loss
# proving every op completes through the rpc retry path, and the failover
# benchmark (an OST blackholed mid-write under 3-way replication: zero
# client errors, redundancy re-replicated onto the survivors). The
# duplicated mifbench telemetry runs guard determinism: two identical
# cache-off invocations must produce byte-identical snapshots.
smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir" ./cmd/mifbench ./cmd/miffsck ./cmd/miftrace && \
	"$$dir/mifbench" -scale 0.25 defrag && \
	"$$dir/mifbench" -scale 0.25 cache && \
	"$$dir/mifbench" -scale 0.25 failover && \
	"$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t1.json" fig6a > /dev/null && \
	"$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t2.json" fig6a > /dev/null && \
	cmp "$$dir/t1.json" "$$dir/t2.json" && \
	"$$dir/miffsck" gen -defrag -journal-only "$$dir/fs.img" && \
	{ "$$dir/miffsck" check "$$dir/fs.img"; test $$? -eq 2; } && \
	"$$dir/miffsck" gen -cache -dirs 2 -files 48 "$$dir/cfs.img" && \
	"$$dir/miffsck" check "$$dir/cfs.img" && \
	"$$dir/miffsck" gen -defrag "$$dir/aged.img" && \
	"$$dir/miffsck" check "$$dir/aged.img" && \
	"$$dir/miffsck" sweep -points journal.append.commit,mdfs.checkpoint.home,ost.flush.media,ost.migrate.free,repair.copy.media,cache.sync.flush > "$$dir/sw1.txt" && \
	"$$dir/miffsck" sweep -points journal.append.commit,mdfs.checkpoint.home,ost.flush.media,ost.migrate.free,repair.copy.media,cache.sync.flush > "$$dir/sw2.txt" && \
	cmp "$$dir/sw1.txt" "$$dir/sw2.txt" && \
	"$$dir/miftrace" gen -streams 4 -region 128 > "$$dir/t.trace" && \
	"$$dir/miftrace" replay -drop-rate 0.05 "$$dir/t.trace" && \
	"$$dir/mifbench" -scale 0.25 -spans "$$dir/s.json" fig6a > /dev/null && \
	"$$dir/miftrace" critpath "$$dir/s.json"

# racesmoke reruns the determinism-sensitive smoke legs on race-built
# binaries with GORACE=halt_on_error=1: the telemetry-identity pair (two
# identical runs must produce byte-identical snapshots), the full
# crash-point sweep (every registered point crashed, recovered — journal
# replay, remount, scrub, repair drain — and verified, with the recovery
# path under the race detector), the fsck walker on a defrag-aged image,
# and a critical-path walk over a span log. A data race aborts the run
# instead of scrolling past.
racesmoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -race -o "$$dir" ./cmd/mifbench ./cmd/miftrace ./cmd/miffsck && \
	GORACE=halt_on_error=1 "$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t1.json" fig6a > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/mifbench" -scale 0.25 -telemetry "$$dir/t2.json" fig6a > /dev/null && \
	cmp "$$dir/t1.json" "$$dir/t2.json" && \
	GORACE=halt_on_error=1 "$$dir/miffsck" sweep > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/miffsck" gen -defrag "$$dir/aged.img" > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/miffsck" check "$$dir/aged.img" > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/mifbench" -scale 0.25 -spans "$$dir/s.json" fig6a > /dev/null && \
	GORACE=halt_on_error=1 "$$dir/miftrace" critpath "$$dir/s.json" > /dev/null && \
	echo "racesmoke: ok"

# bench rewrites BENCH.json, the committed full-scale snapshot of all
# twelve experiments, then EXPERIMENTS.md's generated blocks (result
# tables and ✔/◐/✘ verdict lines) from it. Run it in the PR that moves a
# simulated quantity and commit both: the diffs are the drift report.
# Simulated metrics are deterministic; only wall_ns, created_wall and host
# vary run to run.
bench:
	$(GO) run ./cmd/mifbench -bench-json BENCH.json all
	$(GO) run ./cmd/mifbench report BENCH.json EXPERIMENTS.md

# benchcheck reruns every experiment and fails on any simulated metric or
# result cell that differs from BENCH.json in either direction, or on an
# experiment present on one side only; the wall-clock table it prints is a report,
# not a gate. `go test ./cmd/mifbench` runs the same comparison over the
# six cheap experiments.
benchcheck:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir" ./cmd/mifbench && \
	"$$dir/mifbench" -bench-json "$$dir/b.json" all > /dev/null && \
	"$$dir/mifbench" compare BENCH.json "$$dir/b.json"

GO ?= go

.PHONY: build test vet race fuzz lint loc reach examples bench bench-compare load verify cover chaos audit audit-broken

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages that exercise concurrent execution paths,
# including the resilient link, fault injector and chaos workload, the
# bounded history ring (obs) with its users (audit, tuner), and the store
# whose leaves readers copy out of under the latch while writers update them
# in place (storage, btree, and the back end's DML), and the planner, whose
# plans several sessions build trees from at once, all sharing the plan's
# key ordinals (opt).
race:
	$(GO) test -race ./internal/exec/... ./internal/core/... ./internal/mtcache/... ./internal/repl/... ./internal/remote/... ./internal/fault/... ./internal/vclock/... ./internal/harness/... ./internal/obs/... ./internal/audit/... ./internal/tuner/... ./internal/storage/... ./internal/btree/... ./internal/backend/... ./internal/opt/... ./internal/txn/...

# Ten seconds of native fuzzing each on the comparison kernels, on the
# parser (parse/print fixpoint, scanner and splice against the parse), on the
# scanner (against referenceScan, the branch-chain scanner it replaced, and
# a value's literal scan against the scan of its printed text), on
# the B+-tree (both leaf payloads against a sorted map), on the key
# encoding (byte order against Value.Compare, index-seek ranges), on the
# table's one mutator (Replace and its undo against a map, indexes kept) and
# on ANALYZE (Table.Analyze against the row-at-a-time reference), from the
# seed corpora in
# internal/{exec,sqlparser,btree,sqltypes,storage}/testdata/fuzz (FUZZTIME
# overrides the duration).
fuzz:
	$(GO) test ./internal/exec -run '^$$' -fuzz FuzzKernel -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParse -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test . -run '^$$' -fuzz FuzzScan -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/btree -run '^$$' -fuzz FuzzBTree -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/sqltypes -run '^$$' -fuzz FuzzKeyEncoding -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzTable -fuzztime $(or $(FUZZTIME),10s)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzStats -fuzztime $(or $(FUZZTIME),10s)

# Run the in-repo static-analysis suite (cmd/rcclint) over internal and cmd:
# cross-package lock-order cycles (lockorder), metric-name hygiene
# (metricnames) and wall-clock reads in replayed code (wallclock), plus a
# finding for any package that did not fully type-check. Each analyzer keeps
# a mutant only it catches (internal/analysis/mutant_test.go, run by `make
# test`).
lint:
	$(GO) run ./cmd/rcclint

# Non-test Go lines per package, one line each, and the line count of
# scripts/*.sh; fails if the total outside bench/, internal/exec, the
# guard-event spine (mtcache + obs + audit + core + tuner), the scenario code
# (internal/harness), the lint suite (internal/analysis), the optimizer
# (internal/opt), the parser (internal/sqlparser), the value types
# (internal/sqltypes), the store (internal/storage + internal/btree), the
# back end (internal/backend), replication (internal/repl) or the link
# (internal/remote) exceeds its ceiling (ROADMAP tracks LoC per package).
loc:
	./scripts/loc.sh

# Functions only the unit tests reach, and functions nothing reaches: coverage
# of the four ./bench workloads, every rccbench mode, rccsql, rccdemo,
# rcclint and the examples against that of `go test` (several minutes; no
# gate). REACH_DIR keeps the profiles.
reach:
	./scripts/reach.sh

# Run each example under examples/ twice: it must exit 0 and print the same
# bytes both times (every example drives the simulation on the virtual
# clock). The first run's output is printed under the example's name.
examples:
	@for e in examples/*/; do \
		a=$$($(GO) run ./$$e) && b=$$($(GO) run ./$$e) || exit 1; \
		[ "$$a" = "$$b" ] || { echo "examples: $$e printed other bytes on a second run" >&2; exit 1; }; \
		printf '== %s\n%s\n' "$$e" "$$a"; \
	done

# Tier-1 verification line (see ROADMAP.md).
verify: build vet lint test race

# Executor benchmarks (serial vs morsel-parallel) and the end-to-end
# session point read. Keeps the transcript as BENCH_exec.txt, emits
# BENCH_exec.json with ns/op, rows/sec and allocs/op per benchmark and gates
# it (`rccbench -bench-text`, harness.CheckBench): allocation ceilings,
# parallel scaling, the autotuner's shift outcome, and tolerance bands
# around the committed BENCH_baseline.json (allocs/op tight, rows/sec loose).
bench:
	./scripts/bench.sh

# Re-read the last transcript: rewrite BENCH_exec.json and apply the same
# gates without running the benchmarks again. Run `make bench` first.
bench-compare:
	$(GO) run ./cmd/rccbench -bench-text BENCH_exec.txt

# Open-loop macro-benchmark: saturation sweep over multi-tenant sessions,
# emits BENCH_load.json once the report passes its own schema check
# (harness.LoadReport.Check). `make load SHORT=1` runs the 3-step CI smoke
# sweep.
load:
	$(GO) run ./cmd/rccbench -load -load-json BENCH_load.json $(if $(SHORT),-load-short,)

# Coverage with a minimum-total gate (MIN_COVER, default 70%). CI runs the
# same script, so the gate is identical locally and in the workflow.
cover:
	./scripts/cover.sh

# Deterministic fault-injection run: availability and served-staleness
# percentiles under link faults (same as `rccbench -chaos`).
chaos:
	$(GO) run ./cmd/rccbench -chaos

# Chaos run with the delivered-guarantee auditor. The run gates itself
# (harness.CheckAudit) and fails unless the ledger shows zero silent
# violations, conserved counts, no ring drops and an agreeing replay.
audit:
	$(GO) run ./cmd/rccbench -chaos -audit -snapshot audit-snapshot

# Negative control: the deliberately broken guard-lie schedule; the gate
# inverts and the run fails unless the auditor flagged it with evidence.
audit-broken:
	$(GO) run ./cmd/rccbench -chaos -audit -broken-guard -snapshot audit-broken-snapshot

GO ?= go

.PHONY: check vet build test lint gates race-sanitize fault bench clean

## check: the full verification gate (vet + build + harplint + the
## compiler-contract gate + the test suite under race detector *and*
## harpdebug invariants, which includes the structural gate
## TestStructuralBaseline + fault suite). Nothing here compares a
## clock: a timing change is judged by the repo benchmark — `make bench`
## on the parent and on the change, then `go run ./benchmark compare
## parent.json change.json` (see benchmark/README.md).
check: vet build lint gates race-sanitize fault

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: run the domain-specific static analyzer (spinscope, lockbalance,
## determinism, obshygiene, hotalloc, goroutineleak, errflow) against both
## build configurations — the release tree and the harpdebug invariant
## layer; exits non-zero on unsuppressed findings
lint:
	$(GO) run ./cmd/harplint ./...
	$(GO) run ./cmd/harplint -tags harpdebug ./...

## gates: the compiler-contract gate — one build with
## -gcflags='-m=1 -d=ssa/check_bce'; residual bounds checks, heap escapes
## and inliner verdicts across the hot-kernel reach set must match the
## committed COMPILER_baseline.txt. After a deliberate kernel change,
## regenerate with `go run ./cmd/harplint -gates -update` and commit it.
gates:
	$(GO) run ./cmd/harplint -gates

## race-sanitize: invariants and the race detector together — the
## strictest fast gate (it subsumes plain -race and plain -tags harpdebug
## runs: same tests, both layers on). The four concurrency-heavy packages (the
## simulated cluster, the fault-injection registry, the wait-state
## accounting, and the parallel cut builder and binner) additionally run
## their full suites under -race, not just the -short subset.
race-sanitize:
	$(GO) test -race -short -tags harpdebug ./...
	$(GO) test -race ./internal/dist/ ./internal/fault/ ./internal/perf/ ./internal/dataset/

## fault: the fault-tolerance suite under the race detector (injection
## registry, panic-safe workers, flight-recorder dumps, crash/resume,
## corrupt files, allreduce failures + comms-ledger conservation, CLI
## crash-resume integration)
fault:
	$(GO) test -race ./internal/fault/ ./internal/safeio/
	$(GO) test -race -run 'Flight|Logger' ./internal/obs/
	$(GO) test -race -run 'Panic|Stop|Fault|Injected' ./internal/sched/
	$(GO) test -race -run 'Resume|Checkpoint|Cancel|Corrupt' ./internal/boost/
	$(GO) test -race -run 'Allreduce|Nodes|Ledger|ClusterTrace|Resume' ./internal/dist/
	$(GO) test -race -run 'Reject|Corrupt|Missing' ./internal/dataset/
	$(GO) test -race -run 'CrashResume|CacheFormat' ./cmd/harpgbdt/

## bench: run the repo benchmark (BENCHMARK.json: four workloads on real
## threads, ten complete sets, about 15 min on 2 cores) and write the
## trajectory point BENCH_<date>_<short commit>.json (the commit keeps two
## points of one day apart) — commit it with every perf-affecting change;
## `go run ./benchmark compare a.json b.json` judges one point against
## another
bench:
	$(GO) run ./benchmark -sets 10 -out BENCH_$(shell date +%F)_$(shell git rev-parse --short HEAD).json

# clean removes untracked run outputs only: the BENCH_<date>_<commit>.json
# trajectory points are committed files.
clean:
	rm -f trace.json efficiency.json comms.json cluster-trace.json

GO ?= go

.PHONY: check vet build test lint gates sarif race-sanitize fuzz race-full fault chaos bench benchdiff efficiency comms baseline trace clean

## check: the full verification gate (vet + build + harplint + the
## compiler-contract gate + the test suite under race detector *and*
## harpdebug invariants + fault suite + the structural benchdiff gate).
## Nothing here compares a
## clock: a timing change is judged by the repo benchmark — `make bench`
## on the parent and on the change, then `go run ./benchmark compare
## parent.json change.json` (see benchmark/README.md).
check: vet build lint gates race-sanitize fault benchdiff

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: run the domain-specific static analyzer (spinscope, lockbalance,
## determinism, obshygiene, histlife, barrierbalance, hotalloc, the
## SSA-lite dataflow rules goroutineleak, errflow, ctxflow, atomicmix,
## plus the lockset race rule locksetrace) against both build
## configurations — the release tree and the harpdebug invariant layer;
## exits non-zero on unsuppressed findings
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

## sarif: write the harplint findings (both build configurations merged
## by the consumer; this emits the default configuration) as a SARIF
## 2.1.0 log for code-scanning UIs
sarif:
	$(GO) run ./cmd/harplint -sarif harplint.sarif ./...

## race-sanitize: invariants and the race detector together — the
## strictest fast gate (it subsumes plain -race and plain -tags harpdebug
## runs: same tests, both layers on). The four concurrency-heavy packages (the
## simulated cluster, the fault-injection registry, the wait-state
## accounting, and the parallel cut builder and binner) additionally run
## their full suites under -race, not just the -short subset.
race-sanitize:
	$(GO) test -race -short -tags harpdebug ./...
	$(GO) test -race ./internal/dist/ ./internal/fault/ ./internal/perf/ ./internal/dataset/

## fuzz: short fuzz sessions over the dataset loaders
fuzz:
	$(GO) test -fuzz=FuzzReadLibSVM -fuzztime=5s ./internal/dataset/
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=5s ./internal/dataset/

## race-full: the whole suite under -race, the full-experiment sweeps
## included (race-sanitize runs -short: those sweeps take >10 min under
## the race detector on small machines)
race-full:
	$(GO) test -race -timeout 45m ./...

## fault: the fault-tolerance suite under the race detector (injection
## registry, panic-safe workers, flight-recorder dumps, crash/resume,
## corrupt files, allreduce failures + comms-ledger conservation, CLI
## crash-resume integration)
fault:
	$(GO) test -race ./internal/fault/ ./internal/safeio/
	$(GO) test -race -run 'Flight|Logger' ./internal/obs/
	$(GO) test -race -run 'Panic|Stop|Fault|Injected' ./internal/sched/
	$(GO) test -race -run 'Resume|Checkpoint|Cancel|Corrupt' ./internal/boost/
	$(GO) test -race -run 'Allreduce|Failure|Straggler|Nodes|Ledger|ClusterTrace|Rejoin|MultiNodeDeath|DeathDuringRecovery|Resume|ApplyChaos' ./internal/dist/
	$(GO) test -race -run 'Reject|Corrupt|Missing' ./internal/dataset/
	$(GO) test -race -run 'CrashResume|CacheFormat' ./cmd/harpgbdt/
	$(GO) test -race -run 'Chaos' ./internal/experiments/

## chaos: the deterministic chaos soak — 50 seeded randomized fault
## schedules against the elastic distributed trainer, each asserting ledger
## conservation, GHSum conservation, tree equivalence and clean-failure
## flight dumps; writes chaos.json (fails on any invariant violation, the
## failing seed is printed with its bit-for-bit replay command)
chaos:
	$(GO) run ./cmd/experiments -rows 4000 -dist-nodes 4 \
		-chaos-n 50 -chaos-dir chaos-work -chaos-out chaos.json chaos

## bench: run the repo benchmark (BENCHMARK.json: four workloads on real
## threads, ten complete sets, about 15 min on 2 cores) and write the
## trajectory point BENCH_<date>_<short commit>.json (the commit keeps two
## points of one day apart) — commit it with every perf-affecting change;
## `go run ./benchmark compare a.json b.json` judges one point against
## another
bench:
	$(GO) run ./benchmark -sets 10 -out BENCH_$(shell date +%F)_$(shell git rev-parse --short HEAD).json

## benchdiff: the structural regression gate — re-run `experiments bench`
## on the virtual 32-worker machine at the committed BENCH_baseline.json's
## scale and fail when leaves, depth, train AUC, regions/tree, tasks/tree
## or (with a comms section) the message ledger drift; no timing is
## compared (see EXPERIMENTS.md, "How a change is judged")
benchdiff:
	$(GO) run ./cmd/experiments benchdiff

## efficiency: the parallel-efficiency sweep ({DP,MP,SYNC,ASYNC} x TopK x
## block shape) with per-worker wait-state tables; writes efficiency.json
efficiency:
	$(GO) run ./cmd/experiments efficiency

## comms: the distributed communication study — the bench on the simulated
## cluster with the per-node message/byte ledger; writes comms.json (whose
## comms section the benchdiff gate pins when committed as a baseline)
comms:
	$(GO) run ./cmd/experiments comms

## baseline: refresh the committed structural baseline at the gate's
## canonical scale (commit the resulting BENCH_baseline.json with the
## change that moved it)
baseline:
	$(GO) run ./cmd/experiments -rows 100000 -rounds 5 -bench-out BENCH_baseline.json bench

## trace: produce a sample Chrome trace from a small training run
trace:
	$(GO) run ./cmd/harpgbdt train -synth higgs -rows 20000 -trees 10 \
		-model /tmp/harpgbdt-model.json -trace-out trace.json -profile

# clean removes untracked run outputs only: BENCH_baseline.json and the
# BENCH_<date>_<commit>.json trajectory points are committed files.
clean:
	rm -f trace.json efficiency.json comms.json cluster-trace.json chaos.json harplint.sarif
	rm -rf chaos-work

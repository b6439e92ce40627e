GO ?= go

.PHONY: all build vet test deadpkg race race-short bench bench-json benchdiff bench-baseline bench-gate experiments examples fmt check chaos chaos-smoke guard guard-smoke fuzz trace-smoke serve-smoke collective-smoke elastic-smoke obs-smoke

all: build vet test

# The packages that share caches/pools across goroutines or mutate shared
# controller/registry state: the short race pass of `check` and CI.
RACE_SHORT_PKGS := ./internal/cfft/ ./internal/sparsify/ ./internal/compress/ ./internal/comm/ ./internal/collective/ ./internal/telemetry/ ./internal/adapt/ ./internal/cluster/ ./internal/chaos/ ./internal/guard/ ./internal/checkpoint/ ./internal/trace/ ./internal/obs/ ./internal/ps/ ./internal/serve/

# check is the CI gate: the orphan-package check, vet, build, full test
# suite, then the short race pass.
check: deadpkg
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) race-short

race-short:
	$(GO) test -race -short $(RACE_SHORT_PKGS)

build:
	$(GO) build ./...

# Orphan-package gate: every fftgrad/internal/... package must be imported
# by at least one of the module's non-test packages.
deadpkg:
	@imports="$$($(GO) list -f '{{range .Imports}} {{.}} {{end}}' ./...)"; dead=0; \
	for p in $$($(GO) list ./internal/...); do \
		case "$$imports" in *" $$p "*) ;; *) echo "deadpkg: $$p has no non-test importer"; dead=1;; esac; \
	done; exit $$dead

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/comm/ ./internal/collective/ ./internal/dist/ ./internal/ps/ ./internal/cluster/ ./internal/chaos/ ./internal/guard/ ./internal/trace/ ./internal/obs/ ./internal/serve/

# Chaos gate: the failure-policy suite plus chaos-smoke, a short
# fault-injected training run (5% drop, delays, one crash+rejoin) that
# must converge.
chaos:
	$(GO) test -run 'Chaos|Fault|Partition|Rejoin|Straggler|Suspect' -v ./internal/cluster/ ./internal/chaos/ ./internal/dist/
	$(MAKE) chaos-smoke

chaos-smoke:
	$(GO) run ./cmd/trainer -model mlp -epochs 2 -workers 4 -fault-aware \
		-chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000

# Guard gate: the integrity suite plus guard-smoke, a training run under
# seeded single-bit wire corruption — every corrupt frame must be caught
# by the CRC and repaired, and the run must converge.
guard:
	$(GO) test -run 'Guard|Frame|Scrub|Detector|Fingerprint|Corrupt|Ring|WriteFileAtomic' -v \
		./internal/guard/ ./internal/checkpoint/ ./internal/chaos/ ./internal/dist/
	$(MAKE) guard-smoke

guard-smoke:
	$(GO) run ./cmd/trainer -model mlp -epochs 2 -workers 4 -fault-aware -guard \
		-chaos-corrupt 0.05

# Fuzz smoke: a short wall-clock-bounded pass over the compressed
# message decoder and the guard frame decoder.
fuzz:
	$(GO) test -fuzz=FuzzDecompressRobustness -fuzztime=15s -run '^$$' ./internal/compress/
	$(GO) test -fuzz=FuzzUnframe -fuzztime=15s -run '^$$' ./internal/guard/

# One pass over every benchmark (each experiment bench runs its full
# quick workload once).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Machine-readable compression benchmark: per-primitive and
# per-compressor throughput, wire ratio and allocs/op.
bench-json:
	$(GO) run ./cmd/compressbench -json BENCH_compress.json

# Compare two bench-json reports (OLD=... NEW=..., defaulting to a
# self-diff of BENCH_compress.json); exits non-zero on regression.
benchdiff:
	$(GO) run ./cmd/benchdiff -threshold 0.10 $(or $(OLD),BENCH_compress.json) $(or $(NEW),BENCH_compress.json)

# Regenerate the committed kernel baseline. Run on a quiet machine after
# an intentional kernel change, and commit the result together with it.
# Best-of-5 damps scheduler noise; -mb 8 matches the gate below (ns/op
# rows are normalised against the report's working set, so both sides
# of a diff must use the same size).
bench-baseline:
	$(GO) run ./cmd/compressbench -json BENCH_BASELINE.json -mb 8 -iters 5

# Kernel regression gate: a fresh run diffed against the committed
# baseline. Two tiers, because the baseline was recorded on a different
# machine than the one running the gate:
#   - allocs/op is hardware-independent and gated exactly (any increase
#     in a steady-state-zero path fails, whatever the threshold);
#   - ns/op is a coarse tripwire with a deliberately generous threshold
#     (default 2.0 = up to 3x slower than the baseline box) that still
#     catches algorithmic blowups — a lost fast path, accidental
#     serialisation, O(n log n) turning into O(n^2) — without flagging
#     ordinary cross-machine and scheduler variance.
bench-gate:
	$(GO) run ./cmd/compressbench -json BENCH_ci.json -mb 8 -iters 3
	$(GO) run ./cmd/benchdiff -threshold $(or $(THRESHOLD),2.0) BENCH_BASELINE.json BENCH_ci.json

# Trace smoke: a short chaos run with the flight recorder armed must
# produce a Perfetto-loadable trace_event dump covering every rank.
trace-smoke:
	$(GO) run ./cmd/trainer -model mlp -epochs 2 -workers 4 -fault-aware -guard \
		-chaos-drop 0.05 -chaos-corrupt 0.02 -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000 \
		-trace-out trace-smoke.json
	python3 -c "import json,sys; ev=json.load(open('trace-smoke.json')); ranks={e.get('tid') for e in ev if e.get('ph')=='X'}; assert ranks>={0,1,2,3}, ranks; print('trace-smoke: %d events, ranks %s' % (len(ev), sorted(ranks)))"

# Observability gate: the profiler unit suite (clock offsets under skew,
# critical-path blame, zero-alloc commit), then a 4-rank chaos run with a
# permanent 15ms straggler on rank 2 — the exported blame ledger must
# name rank 2 and charge it at least half of all cross-rank blocked time,
# the run must print the per-iteration breakdown table built from the
# profiler's records, and the merged multi-process timeline must cover
# every rank.
obs-smoke:
	$(GO) test -run 'TestOffsetsUnderSkew|TestCriticalPathBlame|TestFaultPathBlame|TestCommitZeroAlloc|TestProfilerBitIdentical|TestProfilerBlamesChaosStraggler|TestIterRecordFoldsIntoResult' -v ./internal/obs/ ./internal/dist/
	$(GO) build -o obs-smoke-bin ./cmd/trainer
	./obs-smoke-bin -model mlp -epochs 2 -workers 4 -fault-aware \
		-chaos-straggle 2 -chaos-straggle-by 15ms \
		-profile-out obs-smoke.json -trace-out obs-smoke-trace.json | tee obs-smoke.log; \
	RC=$$?; [ $$RC -eq 0 ] && \
	grep -q "profile: top blamed rank 2" obs-smoke.log && \
	grep -q "per-iteration breakdown (first 10):" obs-smoke.log && \
	python3 -c "import json; \
		doc=json.load(open('obs-smoke.json')); \
		b={e['rank']: e for e in doc['blame']}; \
		frac=b[2]['blamed_frac']; \
		assert frac >= 0.5, 'straggled rank 2 only blamed for %.0f%% of blocked time' % (100*frac); \
		assert doc['summary']['iterations'] > 0 and doc['build']['version'], doc['summary']; \
		ev=json.load(open('obs-smoke-trace.merged.json')); \
		pids={e.get('pid') for e in ev if e.get('ph')=='X'}; \
		assert pids>={1,2,3,4}, pids; \
		print('obs-smoke: rank 2 blamed for %.0f%% of %.3fs blocked time; merged timeline spans %d processes' \
			% (100*frac, doc['summary']['total_blocked_ns']/1e9, len(pids)))"; \
	RC=$$?; rm -f obs-smoke-bin obs-smoke.json obs-smoke.log obs-smoke-trace.json obs-smoke-trace.merged.json obs-smoke-trace.flight.json obs-cpu-iter*.pprof obs-anomaly-iter*.json; exit $$RC

# Service smoke: start `trainer -serve`, run two concurrent jobs with
# different compressors over the HTTP API, require both to complete and
# their metrics to stay distinguishable per job, then SIGTERM-drain.
serve-smoke:
	$(GO) build -o serve-smoke-bin ./cmd/trainer
	./serve-smoke-bin -serve -metrics-addr 127.0.0.1:19099 -pool 4 -spool serve-smoke-spool & \
	SRV=$$!; \
	sleep 2; \
	A=$$(curl -sf -X POST 127.0.0.1:19099/jobs -d '{"name":"fft","method":"fft","theta":0.85,"workers":2,"epochs":2,"samples":1024}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])') && \
	B=$$(curl -sf -X POST 127.0.0.1:19099/jobs -d '{"name":"topk","method":"topk","theta":0.9,"workers":2,"epochs":2,"samples":1024}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])') && \
	for i in $$(seq 1 60); do \
		SA=$$(curl -sf 127.0.0.1:19099/jobs/$$A | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'); \
		SB=$$(curl -sf 127.0.0.1:19099/jobs/$$B | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'); \
		[ "$$SA" = completed ] && [ "$$SB" = completed ] && break; sleep 1; \
	done && \
	[ "$$SA" = completed ] && [ "$$SB" = completed ] && \
	curl -sf 127.0.0.1:19099/jobs/metrics | grep -q "job=\"$$A\"" && \
	curl -sf 127.0.0.1:19099/jobs/metrics | grep -q "job=\"$$B\"" && \
	echo "serve-smoke: $$A and $$B completed with per-job metrics"; \
	RC=$$?; kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -rf serve-smoke-bin serve-smoke-spool; exit $$RC

# Collective gate: the Sec. 3.3 crossover-shift check (hier must lower
# k_min vs the flat ring at scale), the exact zero-alloc gates on the
# strategy schedules and traced collectives, then two chaos runs of the
# 2-group hierarchical bucketed pipeline with one rank crashing
# mid-iteration — between bucket rounds: the in-process gate that also
# enforces the 2-point accuracy envelope vs the fault-free flat-ring
# baseline, and a trainer run exercising the CLI flags end to end.
collective-smoke:
	$(GO) test -run 'TestCrossoverShift' -v ./internal/collective/
	$(GO) test -run 'ZeroAlloc' -v ./internal/collective/ ./internal/comm/
	$(GO) test -run 'TestHierBucketedChaosGate' -v ./internal/dist/
	$(GO) run ./cmd/trainer -model mlp -epochs 2 -workers 4 -fault-aware \
		-collective hier -group-size 2 -bucket-bytes 1024 \
		-chaos-drop 0.05 -chaos-delay 10ms -chaos-crash 2 -chaos-crash-at 1200 -chaos-crash-for 1000

# Elasticity gate: the bounded-staleness / gossip / elastic-join suites
# (these enforce the 2-point convergence envelope against the fault-free
# baseline in-process), then two seeded CLI runs under -staleness 4: a
# straggler-free one to time, and one adding a mid-run elastic join plus
# a *permanent* straggler (20ms per send — far above the per-round grace,
# well below the suspicion deadline, and never recovering). The straggled
# run must converge, must dump the timeline on the quorum-grow join, and
# must finish within 1.5x of the straggler-free run (+1s fixed slack for
# the extra rank's startup): bounded staleness folds the straggler's
# cached gradients instead of waiting, so a permanently slow rank no
# longer sets the fleet's pace.
elastic-smoke:
	$(GO) test -run 'TestBoundedStalenessGate|TestGossipGate|TestElasticJoinGate|TestAsyncConfigRejections|TestElasticJoinWorkerAccounting' -v ./internal/dist/
	$(GO) test -run 'TestBackoffJitterDeterministic|TestAwaitRejoinHaltPromptly|TestWaitWithinWindowThrottle|TestExchangeBoundedFoldsStaleCache|TestGossipExchangeMixesNeighbors|TestAdmitJoinGrowsView' -v ./internal/cluster/
	$(GO) build -o elastic-smoke-bin ./cmd/trainer
	T0=$$(date +%s%N); \
	./elastic-smoke-bin -model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 \
		-chaos-drop 0.03 -chaos-delay 5ms >/dev/null || { rm -f elastic-smoke-bin; exit 1; }; \
	T1=$$(date +%s%N); \
	./elastic-smoke-bin -model mlp -epochs 2 -workers 4 -seed 7 -staleness 4 \
		-elastic-join 20 -chaos-drop 0.03 -chaos-delay 5ms \
		-chaos-straggle 3 -chaos-straggle-at 300 -chaos-straggle-by 20ms \
		-trace-out elastic-smoke.json | tee elastic-smoke.log || { rm -f elastic-smoke-bin elastic-smoke.log; exit 1; }; \
	T2=$$(date +%s%N); \
	grep -q "reason view_grow" elastic-smoke.log && \
	python3 -c "import json; ev=json.load(open('elastic-smoke.flight.json')); assert ev, 'empty flight dump'" && \
	python3 -c "base=($$T1-$$T0)/1e9; strag=($$T2-$$T1)/1e9; \
		print('elastic-smoke: straggler-free %.2fs, straggled+join %.2fs' % (base, strag)); \
		assert strag <= 1.5*base + 1.0, 'permanent straggler set the pace: %.2fs vs %.2fs' % (strag, base)"; \
	RC=$$?; rm -f elastic-smoke-bin elastic-smoke.log elastic-smoke.json elastic-smoke.flight.json; exit $$RC

# Regenerate every paper figure/table and ablation.
experiments:
	$(GO) run ./cmd/fftpaper -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/quantization
	$(GO) run ./examples/perfguide
	$(GO) run ./examples/recovery
	$(GO) run ./examples/distributed
	$(GO) run ./examples/tcpcluster
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/jobservice

fmt:
	gofmt -w .

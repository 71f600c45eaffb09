GO ?= go

.PHONY: build test vet race crashtest equivalence serverbench liveretune allocgate fuzz benchmodule loc simfork onestream onehist onelru simdiff verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The engine histograms and the tuning-loop trace are written from multiple
# goroutines; keep them honest under the race detector. The core tuning
# sessions run ~20x slower under -race, past go test's default 10m limit.
# internal/server and internal/bench carry the kvserver connection tests
# (burst coalescing, ordering, close mid-burst, the 256-connection NetRunner
# run), which only mean anything with -race on; internal/lsm's
# TestSetOptionsRace and internal/core's live retuning tests hammer
# reads/writes/iterators while options flip mid-flight.
race:
	$(GO) test -race -timeout 30m ./internal/lsm ./internal/core ./internal/server ./internal/bench

# Randomized crash-consistency harness: 20 crash/recover cycles per option
# combination (single- and multi-CF) through the fault-injection env, under
# the race detector.
crashtest:
	$(GO) test -race -count=1 -timeout 30m -run TestCrashConsistency ./internal/lsm -args -crashcycles=20

# Serial-vs-parallel subcompaction equivalence: the same randomized workload
# (overwrites, deletes, snapshot held across the compaction, multi-CF)
# compacted at max_subcompactions=1 and =4 must produce byte-identical
# iterator dumps. TestTableBytesGolden: a fixed SimEnv script's tables must
# hash to the pinned SHA-256, byte for byte. -count=1 defeats the test cache
# so verify always re-runs both.
equivalence:
	$(GO) test -race -count=1 -run '^(TestSubcompactionEquivalence|TestTableBytesGolden)$$' ./internal/lsm

# End-to-end smoke of the networked service: start kvserver, drive a short
# mixed workload through dbbench -server, assert nonzero throughput and a
# clean SIGINT shutdown.
serverbench:
	./scripts/serverbench.sh

# Allocation regression gates: testing.AllocsPerRun bounds on the cache-hit
# Get path, the single-writer commit path (both runtimes), memtable inserts
# carved from the arena, reused block iteration, snappy block compression and
# reads (scratch and cache-bound), the per-frame server/client paths, and a
# burst of Puts committed as one write group; on the read side, a lookup
# appended into a reused buffer, cache-hit Get frames, Scan pairs appended
# without a copy each, and a whole client Get round trip.
# The limits are measured steady-state values plus noise headroom — a pooled
# codec, buffer, or iterator falling out of reuse, or a memtable entry
# allocated per Put, trips them immediately.
# -count=1 defeats the test cache so verify always re-measures.
allocgate:
	$(GO) test -count=1 -run TestAllocGate ./internal/lsm ./internal/server

# End-to-end smoke of live retuning: start kvserver, put it under load, and
# let elmotune (mock LLM) retune the RUNNING instance through the SetOptions
# wire op — at least one round must apply in place, with the trace and the
# cross-session insight file written.
liveretune:
	./scripts/liveretune.sh

# Native fuzzing of the option boundary — what an LLM's text passes through
# on its way into the engine: any OPTIONS document is refused or renders to a
# fixed point, any (name, value) is refused or leaves a value its own
# validation accepts — of the snappy block codec: any input round-trips
# or is stored raw, any payload decodes to an error or a block exactly as
# long as its prefix declares — and of the wire response decoder: decoding
# any (opcode, body) into a reused Response full of stale fields gives the
# same error or the same fields as decoding into a fresh one. go test takes
# one -fuzz target per run.
# Minimization is off: minimizing one 9 KB "interesting" input would eat the
# whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzConfigSetFromINI$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzSetByName$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzBlockCodecRoundTrip$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/server

# benchmark/ is its own module, out of reach of `go test ./...`; every PR must
# leave it untouched and still building and passing against the root module.
benchmodule:
	cd benchmark && $(GO) build ./... && $(GO) test ./...

# Non-test, non-blank Go lines per package and in total: the counted number a
# simplicity PR quotes (run it at the parent and at the change).
loc:
	./scripts/loc.sh

# The engine is one engine behind the runtime seam (DESIGN §5.1): non-test
# internal/lsm code never mentions db.sim, and asserts env.(*SimEnv) exactly
# once, where the seam is chosen (OpenConfig). Every simulated price is a row
# of simPrices (internal/lsm/simprices.go): no ChargeCPU/ChargeLatency/
# opCost +=/TakeOpCost() line elsewhere in non-test internal/lsm or
# internal/bench code holds a time.Nanosecond/Microsecond literal.
simfork:
	./scripts/simfork.sh

# The workload is one op source behind two targets and two clocks (DESIGN
# §1.2): only internal/bench/op.go may decide the op mix (read
# Spec.ReadFraction / ScanFraction) or draw a Pareto value size.
onestream:
	./scripts/onefile.sh onestream

# Latency histograms are one type (DESIGN §7): only internal/lsm/histogram.go
# may hold bucket math (sort.SearchFloat64s or a Percentile method).
onehist:
	./scripts/onefile.sh onehist

# The recency list is one type (DESIGN §5): the block cache, the table cache
# and SimEnv's page-cache model are built on lru in internal/lsm/lru.go, the
# only file that may hold MoveToFront, PushFront( or pushFront(.
onelru:
	./scripts/onefile.sh onelru

# The refactor oracle for the simulated side (EXPERIMENTS.md): the paper's
# tables and figures regenerated at PARENT and at the working tree must be
# byte-identical. ~2 minutes; not part of verify (it needs a parent to name).
simdiff:
	@test -n "$(PARENT)" || { echo "usage: make simdiff PARENT=<ref>" >&2; exit 2; }
	./scripts/simdiff.sh $(PARENT)

verify: build vet simfork onestream onehist onelru test race equivalence allocgate fuzz benchmodule serverbench liveretune

clean:
	$(GO) clean ./...

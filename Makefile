GO ?= go

.PHONY: build test vet race crashtest equivalence poison serverbench liveretune allocgate fuzz benchmodule loc simfork onestream onehist onelru onewindow onetree onemanifest onescope onewriter onereader simdiff verify clean

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
# hash to the pinned SHA-256, byte for byte. TestInfoLogGolden: the LOG a
# fixed SimEnv script writes (every event line and the close stats dump) must
# hash to its pinned SHA-256. -count=1 defeats the test cache so verify
# always re-runs all three.
equivalence:
	$(GO) test -race -count=1 -run '^(TestSubcompactionEquivalence|TestTableBytesGolden|TestInfoLogGolden)$$' ./internal/lsm

# Use after release, made loud: with -tags poison the block cache fills a
# buffer with 0xDB as it becomes a spare, so a reader still on a released
# block fails at once instead of reading another block later, and a file
# writer (table, WAL or MANIFEST) fills its buffer with 0xDB as it goes back
# to the free list, so an Env that kept a slice of it instead of copying
# writes garbage, as does a file reader's window, so a block still aliasing
# a closed reader's window reads garbage, and a flushed memtable's arena fills its chunks with 0xDB
# as it is recycled, so a reader still on that memtable reads garbage. Runs
# the iterator, table-reader, block-handle and memtable lifetime tests
# (TestMemtableRecycle* among them), the subcompaction equivalence check,
# the table-bytes hash and the file write and read tests (TestFileWrites*,
# the WAL's on OSEnv, SimEnv and FaultInjectionEnv included, and
# TestFileReads*) with the tag, under -race.
poison:
	$(GO) test -tags poison -race -count=1 -run '^(TestIterator|TestTableReader|TestBlockHandle|TestMemtable|TestSubcompactionEquivalence|TestTableBytesGolden|TestFileWrites|TestFileReads)' ./internal/lsm

# End-to-end smoke of the networked service: start kvserver, drive a short
# mixed workload through dbbench -server, assert nonzero throughput and a
# clean SIGINT shutdown.
serverbench:
	./scripts/serverbench.sh

# Allocation regression gates: testing.AllocsPerRun bounds on the cache-hit
# Get path (beside a frozen memtable too), the single-writer commit path
# through Write and through Put (both runtimes), WAL framing in the file
# writer's buffer (TestAllocGateWALAppend, and one write on an OSEnv file),
# a flush on a warmed DB that reuses a writer's buffer and table builder
# (TestAllocGateTableWriteBuf), a compaction on a warmed DB that reuses its
# input runs' read windows (TestAllocGateCompactionWindow), memtable
# inserts carved from the arena, reused block iteration, snappy
# block compression and reads (scratch and private), the block cache's
# recycled handles (an insert into a full cache, a refill after EraseID, a
# Get that misses into a full cache), the per-frame server/client paths, and a burst of
# Puts committed as one write group; on the read side, a lookup appended
# into a reused buffer, a whole scan over the pooled iterator tree
# (TestAllocGateIterator), cache-hit Get frames, Scan(1) frames and Scan
# pairs appended without a copy each, a whole client Get round trip and a
# whole client Put round trip (TestAllocGateClientPut: its status reply is
# read into a reused buffer);
# in the simulator, a SimEnv file appended in 4 KiB pieces allocates its
# size plus at most one 64 KiB chunk (TestAllocGateSimFileAppend); and on
# both runtimes, a memtable filled after a flush carves from the flushed
# one's recycled arena, at most one chunk and one slab per fill
# (TestAllocGateMemtableRecycle).
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
# same error or the same fields as decoding into a fresh one — and of the
# two log parsers: any bytes replay as a log in every recovery mode without a
# panic, accounting for every byte, and any manifest edit that decodes
# survives re-encoding. go test takes one -fuzz target per run.
# Minimization is off: minimizing one 9 KB "interesting" input would eat the
# whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzConfigSetFromINI$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzSetByName$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzBlockCodecRoundTrip$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeVersionEdit$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/lsm
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

# A workload window is two counter readings (DESIGN §10): only
# internal/lsm/workload.go may compute its mix fractions (a
# ReadFraction/WriteFraction/ScanFraction = float64( assignment); the
# benchmark runner, the live targets and elmotune's server target read
# counters and call lsm.NewWorkloadSnapshot.
onewindow:
	./scripts/onefile.sh onewindow

# Scans, flush and compaction build one iterator tree (DESIGN §13): only
# internal/lsm/mergeiter.go, home of mergeTree, may hold a mergeIter{ or
# levelIter{ literal or a []levelIter.
onetree:
	./scripts/onefile.sh onetree

# Every manifest is started by one method (DESIGN §8): only
# internal/lsm/manifest.go, home of versionSet.rollover, may create a file
# named by manifestFileName.
onemanifest:
	./scripts/onefile.sh onemanifest

# Every option has one home (DESIGN §12): only internal/lsm/cfconfig.go,
# home of ConfigSet.Owner, may compare a section with SectionDB.
onescope:
	./scripts/onefile.sh onescope

# One file writer (DESIGN §13): only internal/lsm/filewriter.go, home of
# fileWriter, may call SyncAsync; the WAL, the MANIFEST and the table builder
# write and range-sync through it.
onewriter:
	./scripts/onefile.sh onewriter

# One file reader (DESIGN §5): outside the Env implementations (*env.go),
# only internal/lsm/filereader.go, home of fileReader, may call ReadAt; WAL,
# MANIFEST, CURRENT and table files are read and booked through it.
onereader:
	./scripts/onefile.sh onereader

# The refactor oracle for the simulated side (EXPERIMENTS.md): the paper's
# tables and figures regenerated at PARENT and at the working tree must be
# byte-identical. ~2 minutes; not part of verify (it needs a parent to name).
simdiff:
	@test -n "$(PARENT)" || { echo "usage: make simdiff PARENT=<ref>" >&2; exit 2; }
	./scripts/simdiff.sh $(PARENT)

verify: build vet simfork onestream onehist onelru onewindow onetree onemanifest onescope onewriter onereader test race equivalence poison allocgate fuzz benchmodule serverbench liveretune

clean:
	$(GO) clean ./...

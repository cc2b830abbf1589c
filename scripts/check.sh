#!/bin/sh
# Repo-wide static checks and race-detector test run. This is the
# gate for PRs touching the executor: reference_test.go holds every
# TPC-H benchmark query, the Q1 spellings and the fuzz corpus to
# internal/reference — a naive evaluator that shares no code with the
# executor — under five configurations, parallel_test.go executes the
# same corpus across Parallelism 1/2/4/8 under -race, and the
# observability suites (rules_test.go, obs_test.go) check rule-level
# equivalence and span/metrics invariants on the same corpus.
set -eu
cd "$(dirname "$0")/.."

# Lint: formatting drift fails fast with the offending files listed.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Benchmark-module leg: perfbench is its own module (replace orthoq =>
# ../), so ./... above never compiles it. Its tracer calls the engine's
# layers directly (parser, algebrize, core, opt, exec, plancache, wal);
# renaming one of those functions breaks it silently until the
# benchmark pipeline runs. Vet it and run its smoke test (all four
# workloads at toy size, answers checked) against this tree.
(cd perfbench && go vet ./... && go test ./...)

# Surface-and-identity leg, fail-fast: the exported API of package
# orthoq against testdata/api.golden (generated on the parent of the
# plan-identity refactor, DESIGN §19), every Config field classified as
# plan identity or run state and treated as such by the caches, and
# Explain ending on the plan Prepare compiles. Then the two caches and
# the LRU core they share. A PR that adds a knob fails here first, with
# the field's name, instead of aliasing cached plans later.
go test -run 'TestPublicAPIGolden|TestConfigFieldsClassified|TestExplainMatchesPrepare' .
go test ./internal/plancache ./internal/resultcache ./internal/lru

# Normalization-primitives leg, fail-fast: the algebra's scalar and
# column maps (MapChildren, MapScalar), the clone and instance matcher
# of core (cloneWithFreshCols, matchRels) and the normalizer's rewrites
# are what the memo's rules are made of, so a fault there fails here,
# by name, before the optimizer leg reports it as a moved plan.
go test ./internal/algebra ./internal/core

# Optimizer leg, fail-fast: the search is pinned (102 searches against
# plans.golden: plan text, bit-exact cost, memo size, rules — never run
# with -update here); the members of the memo's groups are the same
# relation by the reference evaluator, alone or in context; every pinned
# search and the fuzz corpus end at the fixpoint, nowhere near the size
# guard; two searches of one query agree; what the memo holds for a plan
# equals what the tree gives from scratch; seeded Q2's memo stays of the
# order of 10³ expressions; no plan costs more than the one the budgeted
# search of the parent commit returned; and the three spellings of the
# paper's Q1 reach one plan (DESIGN §17); and every binding the memo
# does not queue or fire in full (a join over a join that cannot change
# it, a commute or rotation it holds, an operator alone no rule reads)
# changes nothing when built from its trees once exploration ends; and
# the estimates a search returns with its plan are the plan's own, node
# for node and at the root, bit for bit as the plan priced alone. Then
# the cost model's estimate-versus-actual record, printed (q-error
# median and p95, the worst operators, estimated cost per ms of each
# operator family; it pins nothing). Then one iteration of the
# optimizer benchmark, which prints groups/op, exprs/op, costed/op,
# rewrites/op, built/op and queued/op beside B/op and allocs/op for the
# five queries whose searches used to run out of steps. Its executor twin runs one iteration each of the
# warm pass (the 15 queries of perfbench's warm_analytic, plans cached),
# the seven of them whose Applies run as index-lookup probes,
# the batched Apply over nearly unique bindings, serially and at two
# workers, Figure 1 kept correlated at four workers (both Applies run
# inside the morsel exchange), Q2's and Q17's correlated plans (the
# Applies that are not probes),
# Q1's scan-and-aggregate, an integer-key aggregation into thousands of
# groups, Q18's streaming aggregation over the lineitem_pk walk, Q21
# (whose joins over empty builds never read their probe sides), a hash
# join, and a selective probe against a small build side
# (Q20's shape), and Q1 at two and four workers (the §3.3 split around
# the morsel exchange), so every run prints B/op and allocs/op for the paths
# that touch rows. Last, one statistics collection over the TPC-H store
# at SF 0.01, which every Open and Analyze runs.
go test -run 'TestSearchUnchanged|TestGroupsAreSound|TestSearchExhausts|TestOptimizeDeterministic|TestMemoMatchesFromScratch|TestMemoBounds|TestPlansNoWorseThanParent|TestSkippedBindingsChangeNothing|TestSearchEstimatesArePricing' ./internal/opt
go test -run 'TestQ1SpellingsReachOnePlan|TestFuzzCorpusSearchExhausts' .
go test -run TestQErrorReport -v .
go test -run '^$' -bench OptimizeTPCH -benchtime 1x -benchmem ./internal/opt
go test -run '^$' -bench 'WarmPass$|ApplyProbe$|ApplyDistinctBindings$|ApplyDistinctBindingsPar2$|Figure1CorrelatedPar4$|TPCHQ2Correlated$|TPCHQ17Correlated$|BatchScanAggQ1$|BatchScanAggQ18$|BatchStreamAggQ18$|TPCHQ21$|BatchJoin$|BatchJoinSelective$|SeekUnanalyzed$|ParallelAgg/par2$|ParallelAgg/par4$' -benchtime 1x -benchmem .
go test -run '^$' -bench 'Collect$' -benchtime 1x -benchmem ./internal/stats

# Value-domain leg, fail-fast: every row-touching line of the executor,
# the reference evaluator and the storage codec depends on the datum's
# layout and semantics — its size (32 bytes), the zero value being NULL,
# floats surviving bit for bit, Compare/Equal/Hash agreeing with Go's
# orderings — and the WAL and checkpoint bytes of every kind are pinned
# to what was written before the layout changed.
go test ./internal/sql/types ./internal/storage

# Reference-equivalence leg: the engine against the oracle is the
# highest-signal regression check for executor, normalizer and
# optimizer changes — fail it early and clearly before the full suite
# runs. The oracle's independence is part of the leg: of this module,
# internal/reference may depend on the algebra, the value domain, the
# catalog and storage, and on nothing that evaluates, executes,
# normalizes or optimizes.
go test ./internal/reference
if go list -deps ./internal/reference | grep -E '^orthoq/internal/(eval|exec|core|opt)$'; then
    echo "internal/reference must not depend on the packages it checks" >&2
    exit 1
fi
go test -run TestReferenceEquivalence -race .
# Parallel aggregation is the §3.3 split around the morsel exchange:
# every splittable aggregate, grouped and scalar, over an empty table
# and a driver whose rows are all filtered out, at two and four workers
# with and without a 16 KiB budget, against the oracle; and the split's
# avg of an Int column, bit for bit the unsplit avg. With them, the
# exchanges the optimizer places: the 12 TPC-H plans at four workers
# pinned (testdata/parallel_plans.golden), and every plan at two and
# four workers over TPC-H and the fuzz corpus held to the exchange's
# invariants and to the oracle.
go test -run 'TestParallelAggregationMatchesReference|TestSplitAvgOfInt|TestParallelPlansGolden|TestExchangePlacement' -race .
# The parallel tests at both ends of the worker spread: with one
# GOMAXPROCS a single worker may drain every morsel, with two they race.
go test -run 'Parallel|Exchange|TraceCounts' -cpu 1,2 . ./internal/exec

# Vector-kernel leg: every operator predicate, projection and aggregate
# argument evaluates through eval.CompileVec, so the vector ≡
# interpreter property (random scalars over random batches, selection
# vectors and outer environments, the same datum or the same error per
# row) is the unit-level twin of the equivalence check above. Then ten seconds of coverage-guided fuzzing
# over the property's generator seeds.
go test -race ./internal/eval
go test -run '^$' -fuzz FuzzVecEval -fuzztime 10s ./internal/eval

# Byte-level surfaces: ten seconds each of coverage-guided fuzzing over
# the SQL lexer+parser (arbitrary text must parse or error, and what
# parses must print to SQL that parses), the wire's JSON request bodies
# (every endpoint that decodes one answers with JSON and a 2xx or 4xx),
# WAL record framing and bodies (seeded from a real segment), and the
# checkpoint snapshot codec (whose accepted rows must fit their
# tables). Each must return an error or a value — never panic, hang, or
# allocate by a length it has not checked against the bytes that
# remain. Crashers land in testdata/fuzz and run as regular tests from
# then on.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s .
go test -run '^$' -fuzz FuzzRequestBodies -fuzztime 10s ./internal/server
go test -run '^$' -fuzz FuzzWALRecord -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/storage

# Governance leg: the fault-injection property sweep, spill-vs-unbounded
# equivalence, and the goroutine/spill-file leak checks, under -race.
# These catch lifecycle bugs (stranded workers, unreleased memory,
# orphaned spill partitions) that the equivalence suites can't see.
# With them, the hash join's edge cases against internal/reference: an
# empty build side, all-NULL probe keys, a key's build rows spanning
# batches, a build shared by four workers, a Grace spill; and a row
# holding ±Inf or NaN, which reaches a wire client inline and through a
# cursor.
go test -run 'TestTypedErrors|TestFaultInjection|TestSpill|TestStream|TestCancel|TestCacheSurvivesFailedRuns|TestStmtReusableAfterFailure|TestHashJoinEdgeCases' -race .
go test -run TestNonFiniteFloatsOverWire -race ./internal/server

# Server leg: admission control, session/cursor lifecycle, and the
# wire front end under -race — including the two whole-stack load
# checks: zero stale reads through the result cache while a writer
# inserts, and zero failed operations from 32 sessions against an
# admission pool sized to a quarter of them — plus the
# concurrent-writer publication tests (storage COW + the root
# Insert/Analyze-vs-Query hammer and snapshot serial-equivalence
# checks), and the stored typed columns held to their rows — after the
# TPC-H and fuzz corpora under every engine variant, and while batches
# are appended beside readers of an old snapshot and the newest
# version. With them the statistics collector, which profiles a table
# on several goroutines. The full ./... race run below covers these
# again; this leg fails fast with a focused signal.
go test -race ./internal/server ./internal/storage ./internal/stats
go test -run 'TestInsertQueryRace|TestSnapshotSerialEquivalence|TestStmtRunSnapshot|TestStoredColumnsMatchRows' -race .

# Result-cache leg: cached-vs-uncached equivalence over TPC-H and the
# fuzz corpus, the snapshot/version-key interplay, and the concurrent-
# writer invalidation hammer, under -race — a cache hit must be
# byte-identical to re-execution and a published write must make every
# older entry unreachable.
go test -run 'TestResultCache' -race .

# Order leg: the order-equivalence property suite — every TPC-H query
# and the order-sensitive corpus with the order rules on and off, serial
# and parallel, and with sorted inputs (a Sort under every equi-join and
# grouped GroupBy, so they run as merge joins and streaming
# aggregations), each held to internal/reference: its bag everywhere,
# its ORDER BY key sequence under ORDER BY; the sorted runs must have
# executed every merge-join kind and a streaming aggregation — plus the
# sort-elision and row-cap pins and the order operators' memory-budget
# and plan-cache tests, under -race. With them, the two checks that
# EXPLAIN and traces report what runs: every Apply's apply= in EXPLAIN
# is the strategy its span ran (TPC-H and the fuzz corpus, serial and at
# four workers), and a pull that produced rows is timed by the real
# clock, so a short strand is not credited 0 s. And the join emitter
# every join and Apply shares, which evaluates a left row's candidates
# as vector batches, against the per-pair loop it replaced: the same
# rows in the same order, the same error, the same pairs charged. And
# the aggregation's group lookup from key vectors against the
# row-at-a-time lookup it replaced: the same hash as types.HashRow, the
# same group for every row. And the executor's one hash table against
# row-at-a-time definitions: its entries numbered as the row lookup
# numbers groups, a join table's candidates those of a nested loop over
# types.EqualRows, in build order.
# And the same check for the access path: every seek= in EXPLAIN names
# the index its traced access read, and a seek returns the rows a scan
# does after inserts no Analyze followed, on a table never analyzed and
# inside an Apply.
# And a NaN in a Float column leaves the other rows sorted, in an
# ordered index and under ORDER BY, and every NaN is one grouping key
# under hash and streaming aggregation, whose MIN and MAX do not depend
# on where the NaN arrives. And the index-lookup probe
# against the batched Apply: the same rows in the same order and the
# same error, batch by batch, and under a RowBudget either that answer
# or ErrRowBudget.
go test -run 'TestOrder|TestSortElided|TestLimitReadsOnlyItsRows|TestMergeJoin|TestStreamAgg|TestSortUnderStreamAgg|TestTopSpanCounted|TestRowCap|TestApplyInnerRowCaps|TestCacheStaleOrderedIndex|TestCacheOrderStrategySeparation|TestExplainApplyMatchesExecution|TestExplainAccessMatchesExecution|TestSeekSeesUnanalyzedInserts|TestTraceClockTimesShortStrand|TestJoinEmitMatchesPairLoop|TestVecHashMatchesHashRow|TestHashTableMatchesRowOracle|TestNaNSortsAfterNumbers|TestNaNGroupsAsOneKey|TestNaNMinMaxIgnoresInputOrder|TestApplyProbeMatchesBatched' -race . ./internal/exec

# Recovery leg: the WAL crash matrix (fault-injected crashes mid-append,
# mid-fsync, mid-checkpoint-rename; torn tails; CRC corruption; the
# concurrent group-commit kill) under -race, the durable end-to-end
# cycle/kill/TPC-H-equality tests, and the readiness gate. Then the
# real thing: build orthoq-server, write over the wire, kill -9, and
# verify every acknowledged write survives the restart.
go test -race ./internal/wal
go test -run 'TestDurable|TestNotDurable|TestReadiness|TestDrain' -race . ./internal/server
go test -run TestKill9RestartSmoke -race ./cmd/orthoq-server

# Full suite under -race. Run separately from coverage: the root
# package executes the whole TPC-H property corpus, and stacking
# cross-package coverage instrumentation on top of the race detector
# pushes it past a 30-minute per-package timeout. Race-only finishes
# in ~6 minutes; coverage-only in a few more.
go test -race -timeout 30m ./...

# Coverage across all packages (no race detector — see above). The
# cross-package profile is what credits the root integration suites
# with the internal/exec and internal/opt statements they exercise.
go test -timeout 30m -coverpkg=./... -coverprofile=coverage.out ./...

# Size report (no gate): non-test Go lines per package, the number the
# ROADMAP's "least code" aim reads next to the coverage figure below.
sh scripts/loc.sh

# Coverage ratchet: the floor only moves up. Raise it when a PR
# meaningfully grows coverage; never lower it to make a PR pass.
floor=77.0
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total coverage: ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "coverage ${total}% fell below the ${floor}% floor" >&2
    exit 1
}

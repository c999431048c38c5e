#!/bin/sh
# Repo verification: tier-1 build+test, vet, a gofmt check, the race
# detector over the concurrency-heavy packages (transport redial cycles,
# directory announce loops, netemu fault injection, obs registry, the
# mapper supervisor, the mapper reconciler, its conformance suite and the
# six platform mappers) plus the integration soak and crash/restart chaos
# cycle, the repo benchmark's own tests (a module of its own under
# benchmark/), five runs of a tier-1 test that used to flake and of the
# Section 5.2 and Figure 11 claim tests, ten runs of the directory's
# event-waiting, fold and golden-vector tests, five race runs of the
# transport's fan-out equivalence, connect-race and large-payload wire
# tests and of netemu's stream property and impairment-toggle tests, a
# 5-second fuzz smoke per wire-codec target, a one-iteration
# benchharness smoke run with -json output, and 3x regression gates for
# the dirscale, load and restart experiments against the committed
# BENCH_*.json baselines.
#
# VERIFY_SHORT=1 passes -short to the slow race-detector suites (fewer
# chaos/soak cycles), keeping this script's test phase under ~30s.
set -eux

cd "$(dirname "$0")/.."

short_flag=""
if [ -n "${VERIFY_SHORT:-}" ]; then
    short_flag="-short"
fi

go build ./...
# Size of the root module's non-test Go code, so each change's growth or
# reduction is on record.
echo "non-test Go lines: $(find . \( -path ./benchmark -o -name '.?*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
go vet ./...
# Every Go file of the root module is gofmt-formatted.
unformatted="$(find . \( -path ./benchmark -o -name '.?*' \) -prune -o -name '*.go' -print | xargs gofmt -l)"
test -z "$unformatted" || { echo "gofmt needed: $unformatted"; exit 1; }
# Non-race pass. It includes the deliver path's allocation budget
# (TestDeliverPathAllocationBudget, built only without -race: the
# detector's instrumentation allocates).
go test ./...
# The repo benchmark is a module of its own, so ./... above misses it.
go test -C benchmark ./...
# A tier-1 test that flaked with a known cause (a missing directory
# wait), and the timed Section 5.2 and Figure 11 claim tests (Figure
# 11's replaced a 3x gate): five more runs each so a regression of the
# fix or a claim that holds only by luck shows.
go test -count=5 -run 'TestFigure5CameraToTVAcrossNodes|TestRunSec52UPnPSmoke|TestRunFigure11Smoke' ./internal/integration ./internal/bench
# The tests that wait on events (settled digests, a heartbeat count),
# the sync_req zone regression, the golden wire vectors, the tests
# of the timer-free delta flusher (burst fold, reused-ID contract,
# net-cancelled and partial deltas, ACL shadowing), the join announce
# sent before Start returns, the batched listener fan-out, and churn
# under a fast heartbeat provoking no sync_req: ten more runs each.
go test -count=10 -run 'TestSteadyStateHeartbeatsOnly|TestGolden|TestSyncReqCarriesRequesterZone|TestBulkRegistrationBurst|TestReusedIDNetChange|TestNetCancelledDeltaCausesNoSyncChurn|TestPartialDeltaConverges|TestACLDeniedEntriesShadowed|TestStartSendsJoinAnnounce|TestBatchListenerCoalescesAdvert|TestChurnCausesNoSyncRequests' ./internal/directory
go test -race ./internal/core/ ./internal/obs/ ./internal/transport/ ./internal/directory/ ./internal/netemu/ ./internal/runtime/ ./internal/qos/ ./internal/load/ ./internal/wal/ ./internal/mapper/... ./internal/mappers/...
# Lookup and Resolve share sealed profiles with concurrent writers: more
# race-detector passes over the read-path equivalence and sharing tests.
go test -race -count=3 -run 'Equivalence|Concurrent' ./internal/directory
go test -race $short_flag -run 'TestSoakChurnAndFaults' ./internal/integration/
go test -race $short_flag -run 'TestCrashRestartChaosAllMappers' ./internal/integration/
# Sharded-dispatch soak: exactly-once, in-order delivery across striped
# write connections while translators churn and links flap.
go test -race $short_flag -run 'TestShardedDispatchExactlyOnce' ./internal/transport/ -count=1
# Directory-event fan-out: the indexed handlers against the full-scan
# model over a random event sequence, ConnectQuery racing a peer's
# AddLocal or RemoveLocal (the path must end bound to what Lookup says),
# and concurrent writers of payloads sent by reference (one that
# outlives its writer's write call is a data race only -race sees).
go test -race -count=5 -run 'TestFanOutIndexEquivalenceProperty|TestConnectQueryRacingPeer|TestLargePayloadWireProperty' ./internal/transport/
# netemu's stream fast path: random Write/Read sizes over an unshaped
# and a shaped link (order, pacing, multi-segment reads, a bounded
# queue), and impairments toggled on and off under a streaming writer.
go test -race -count=5 -run 'TestStreamReadWriteProperty|TestImpairmentToggle' ./internal/netemu/

# Fuzz smoke: 5 seconds per wire-facing target. Patterns are anchored —
# -fuzz must match exactly one target per invocation.
go test ./internal/transport/ -run '^$' -fuzz '^FuzzFrameRoundTrip$' -fuzztime 5s
go test ./internal/transport/ -run '^$' -fuzz '^FuzzFrameRead$' -fuzztime 5s
go test ./internal/directory/ -run '^$' -fuzz '^FuzzHandleAdvert$' -fuzztime 5s
go test ./internal/directory/ -run '^$' -fuzz '^FuzzInterestSummary$' -fuzztime 5s
go test ./internal/wal/ -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 5s

# Benchharness smoke: one mapping iteration, JSON row dump must appear.
tmpdir="$(mktemp -d)"
go build -o "$tmpdir/benchharness" ./cmd/benchharness
go build -o "$tmpdir/benchgate" ./cmd/benchgate
(cd "$tmpdir" && ./benchharness -exp fig10 -iters 1 -json >/dev/null && test -s BENCH_fig10.json)

# Directory-scale gate: a short-window dirscale run must keep lookup
# throughput within 3x of the committed baseline and steady-state advert
# bandwidth within 3x above it (the delta-anti-entropy guarantee). The
# -mesh smoke point exercises a 10-node federated chain (zone join +
# per-node advert bandwidth); -allow-missing skips the committed
# 100000x50 row, which only the full regeneration run reproduces.
(cd "$tmpdir" && ./benchharness -exp dirscale -window 300ms -mesh 1000x10 -json >/dev/null)
"$tmpdir/benchgate" -allow-missing BENCH_dirscale.json "$tmpdir/BENCH_dirscale.json"

# Open-loop load gate: a 5-second 1000-binding smoke at the committed
# offered rate must keep AchievedPerSec within 3x of the committed
# baseline row. -allow-missing skips the committed 100000-binding row,
# which only the full regeneration run reproduces.
(cd "$tmpdir" && ./benchharness -exp load -bindings 1000 -rate 10000 -loaddur 5s -json >/dev/null)
"$tmpdir/benchgate" -allow-missing BENCH_load.json "$tmpdir/BENCH_load.json"

# Restart-chaos gate: a 2000-entry smoke of the durability experiment —
# cold join over the 10 Mbps bus, six hot-config applies on a loaded
# path (zero drops enforced by the harness row), then a warm restart
# from the log. -allow-missing skips the committed 100000-entry row,
# which only the full regeneration run reproduces.
(cd "$tmpdir" && ./benchharness -exp restart -entries 2000 -json >/dev/null)
"$tmpdir/benchgate" -allow-missing BENCH_restart.json "$tmpdir/BENCH_restart.json"
rm -rf "$tmpdir"

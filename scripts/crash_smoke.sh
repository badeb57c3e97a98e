#!/usr/bin/env bash
# Crash-consistency smoke: the durability stack end to end.
#
#   1. The power-cut property test under the race detector — the scripted
#      Save/fleet/Finalize/GC workload killed at every write boundary
#      (clean and torn), recovered, and fsck'd.
#   2. The fleet durable-session tests (resume, eviction, torn-tail trim,
#      lease-vs-finalize) under the race detector.
#   3. crashcheck — the in-process wiring smoke that asserts every
#      recovery path moves its observability counter
#      (repo.journal.replays, repo.salvage.segments.recovered,
#      repo.fsck.issues/repairs, fleet.sessions.resumed) and that
#      records.in == records.archived across a collector restart.
#   4. A CLI round trip: archive a real run, corrupt the blob's tail,
#      prove `runs fsck` flags it, `runs salvage` recovers it, and the
#      repaired run still opens.
#   5. Acked means durable for the default collector: stream two agents
#      into a plain `-collect-serve` (no -replicas), kill -9 it, and
#      prove offline that both runs are listed with their acked record
#      counts and fsck-clean; then restart it on the same directory and
#      stream a third.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== power-cut property test (-race)"
go test -race -count=1 -run 'TestPowerCutAtEveryWriteBoundary' ./internal/repo

echo "== fleet durable-session tests (-race)"
go test -race -count=1 -run 'TestFleet(Resume|RecoverSessions|FinalizeBeatsLeaseExpiry|DurableAppendFailure)|TestSessionToken' ./internal/repo

echo "== crashcheck (recovery counters)"
go run ./scripts/crashcheck

workdir="$(mktemp -d /tmp/crash_smoke.XXXXXX)"
collector=""
cleanup() {
    if [ -n "$collector" ]; then
        kill "$collector" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT
repodir="$workdir/runs"

bin="$workdir/tpupoint"
go build -o "$bin" ./cmd/tpupoint

echo "== archiving a run, then tearing its blob"
"$bin" -workload dcgan-mnist -steps 60 -archive "$repodir" -run-id crash-v2 -label crash >/dev/null
blob="$repodir/runs/crash-v2/archive"
[ -f "$blob" ]
size="$(wc -c < "$blob")"
truncate -s "$((size - 16))" "$blob"

# grep -q exits at the first match, which would SIGPIPE the writer
# under pipefail — capture to variables instead of piping.
echo "== runs fsck must flag the torn blob"
if fsck_out="$("$bin" -archive "$repodir" runs fsck 2>&1)"; then
    echo "$fsck_out"
    echo "fsck passed on a corrupted repository" >&2
    exit 1
fi
echo "$fsck_out" | grep -q 'crash-v2'

echo "== runs salvage crash-v2"
salvage_out="$("$bin" -archive "$repodir" runs salvage crash-v2)"
echo "$salvage_out"
echo "$salvage_out" | grep -q 'segments'

echo "== runs fsck must now be clean"
"$bin" -archive "$repodir" runs fsck

# The salvaged archive keeps its records but drops the embedded summary
# (it lived in the torn-off footer), so assert on the record line, not
# the phase table.
echo "== runs show still opens the salvaged run"
show_out="$("$bin" -archive "$repodir" runs show crash-v2)"
echo "$show_out" | grep -q 'records:'

echo "== default collector: acked runs survive kill -9"
colldir="$workdir/collected"
# A port derived from the PID keeps parallel CI jobs apart; the banner
# wait below catches a bind failure either way.
ep="127.0.0.1:$((40000 + $$ % 20000))"

start_collector() { # logfile
    "$bin" -collect-serve "$ep" -archive "$colldir" >"$1" 2>&1 &
    collector=$!
    for _ in $(seq 1 100); do
        if grep -q 'fleet collection server on' "$1" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "crash_smoke.sh: collector never came up; log:" >&2
    cat "$1" >&2
    return 1
}

declare -A acked_by_run
run_agent() { # run-id
    local out sent acked
    out="$("$bin" -workload bert-squad -steps 4 -collect "$ep" -run-id "$1")"
    sent="$(sed -n 's/.*(\([0-9][0-9]*\) records)$/\1/p' <<<"$out" | head -n 1)"
    acked="$(sed -n 's/^archived:.*): \([0-9][0-9]*\) records.*/\1/p' <<<"$out")"
    if [ -z "$sent" ] || [ "$sent" != "${acked:-}" ]; then
        echo "crash_smoke.sh: agent $1 sent ${sent:-?} records, server acked ${acked:-?}" >&2
        echo "$out" >&2
        exit 1
    fi
    acked_by_run[$1]="$acked"
}

start_collector "$workdir/collector.log"
grep -q "max 32 sessions" "$workdir/collector.log"
run_agent agent-1
run_agent agent-2
kill -9 "$collector"
wait "$collector" 2>/dev/null || true
collector=""

echo "== offline list + fsck after the kill"
list="$("$bin" -archive "$colldir" runs list)"
echo "$list"
for run in agent-1 agent-2; do
    listed="$(awk -v r="$run" '$1 == r {print $(NF-2)}' <<<"$list")"
    if [ "$listed" != "${acked_by_run[$run]}" ]; then
        echo "crash_smoke.sh: $run acked ${acked_by_run[$run]} records, ${listed:-none} listed after kill -9" >&2
        exit 1
    fi
done
fsck_out="$("$bin" -archive "$colldir" runs fsck)"
echo "$fsck_out"
echo "$fsck_out" | grep -q 'no issues'

echo "== restart the collector on the same directory"
start_collector "$workdir/collector2.log"
run_agent agent-3
kill "$collector"
wait "$collector" 2>/dev/null || true
collector=""
list="$("$bin" -archive "$colldir" runs list)"
runs_listed="$(tail -n +2 <<<"$list" | grep -c '^agent-')"
if [ "$runs_listed" -ne 3 ]; then
    echo "crash_smoke.sh: 3 agents acked but $runs_listed runs listed" >&2
    echo "$list" >&2
    exit 1
fi

echo "crash smoke: OK"

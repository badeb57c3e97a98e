#!/usr/bin/env bash
# Sharded-ingest smoke: the contention and migration suites under the
# race detector, then a CLI round trip over a real on-disk repository —
# archive runs into a legacy single-manifest layout, migrate it to four
# manifest shards with -shards, compact the small archives into a pack,
# and prove every verb still reads the packed, sharded repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== sharded contention + migration + compaction under -race"
go test -race -run \
    'TestShardedContentionZeroLoss64|TestMigrationRoundTrip|TestMigrationPowerCut|TestCompactMergesAndPreservesReads|TestDeletePackedRunRefcountsPack' \
    ./internal/repo

workdir="$(mktemp -d /tmp/ingest_smoke.XXXXXX)"
trap 'rm -rf "$workdir"' EXIT
repodir="$workdir/runs"

bin="$workdir/tpupoint"
go build -o "$bin" ./cmd/tpupoint

echo "== archiving three runs into a legacy single-manifest repository"
for i in 1 2 3; do
    "$bin" -workload dcgan-mnist -steps 60 -archive "$repodir" \
        -run-id "smoke-$i" -label smoke >/dev/null
done
if [ ! -f "$repodir/runs/manifest.json" ]; then
    echo "ingest_smoke.sh: expected legacy runs/manifest.json" >&2
    exit 1
fi

echo "== migrating to 4 manifest shards (-shards 4)"
# Any verb given -shards migrates on open, rewriting the layout in place;
# gc keeps everything (-keep 3).
"$bin" -archive "$repodir" -shards 4 -keep 3 runs gc >/dev/null
if [ ! -f "$repodir/runs/.layout" ] || [ ! -f "$repodir/runs/manifest-0.json" ]; then
    echo "ingest_smoke.sh: migration left no sharded layout on disk" >&2
    exit 1
fi
if [ -f "$repodir/runs/manifest.json" ]; then
    echo "ingest_smoke.sh: legacy manifest survived the migration" >&2
    exit 1
fi

echo "== runs list / fsck over the sharded repository"
list="$("$bin" -archive "$repodir" runs list)"
echo "$list"
for i in 1 2 3; do
    echo "$list" | grep -q "smoke-$i"
done
"$bin" -archive "$repodir" runs fsck >/dev/null

echo "== runs compact"
compact_out="$("$bin" -archive "$repodir" runs compact)"
echo "$compact_out"
echo "$compact_out" | grep -q '^packed '
ls "$repodir"/runs/.pack/ | grep -q .

echo "== packed runs still read back"
show_out="$("$bin" -archive "$repodir" runs show smoke-2)"
echo "$show_out" | grep -q 'records:'
"$bin" -archive "$repodir" runs fsck >/dev/null

echo "ingest smoke: OK"

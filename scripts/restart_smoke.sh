#!/usr/bin/env bash
# restart_smoke.sh - kill -9 / restart recovery smoke test of gpmetisd.
#
# Boots gpmetisd with a durable journal and a checkpoint directory,
# completes one job, then kills the daemon with SIGKILL while a second,
# much larger job is mid-run with a checkpoint on disk. A fresh daemon
# started on the same journal must (a) serve the completed job's result
# as a cache hit, (b) re-admit the interrupted job and finish it from
# its crash checkpoint (resumed=true). Run via `make serve-smoke` or
# directly from the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
        wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

start_daemon() { # $1 = log file; prints nothing, sets daemon_pid and base
    "$workdir/gpmetisd" -addr 127.0.0.1:0 -devices 1 \
        -journal "$workdir/journal.jsonl" -checkpoint-dir "$workdir/ckpt" \
        >"$1" 2>&1 &
    daemon_pid=$!
    base=""
    for _ in $(seq 1 50); do
        base="$(sed -n 's/^gpmetisd: listening on \(http:\/\/[^ ]*\).*/\1/p' "$1")"
        [[ -n "$base" ]] && break
        kill -0 "$daemon_pid" 2>/dev/null || { cat "$1"; echo "restart-smoke: FAIL daemon died on startup"; exit 1; }
        sleep 0.1
    done
    [[ -n "$base" ]] || { echo "restart-smoke: FAIL daemon never reported its address"; exit 1; }
}

echo "restart-smoke: building binaries and graphs"
go build -o "$workdir/gpmetisd" ./cmd/gpmetisd
go build -o "$workdir/gpmetis" ./cmd/gpmetis
go run ./cmd/graphgen -family delaunay -n 20000 -seed 1 -o "$workdir/quick.metis" >/dev/null
go run ./cmd/graphgen -family delaunay -n 400000 -seed 2 -o "$workdir/slow.metis" >/dev/null
mkdir -p "$workdir/ckpt"

start_daemon "$workdir/daemon1.log"
echo "restart-smoke: daemon at $base (journal + checkpoints in $workdir)"

echo "restart-smoke: completing a quick job"
"$workdir/gpmetis" -server "$base" -k 8 -json -o "$workdir/quick1.part" \
    "$workdir/quick.metis" >"$workdir/quick1.json"
grep -q '"edge_cut"' "$workdir/quick1.json" || { cat "$workdir/quick1.json"; echo "restart-smoke: FAIL quick job carries no result"; exit 1; }

echo "restart-smoke: starting a slow job and waiting for its checkpoint"
"$workdir/gpmetis" -server "$base" -k 16 -o "$workdir/slow.part" \
    "$workdir/slow.metis" >/dev/null 2>&1 &
client_pid=$!
ok=""
for _ in $(seq 1 300); do
    if compgen -G "$workdir/ckpt/*.ckpt" >/dev/null; then ok=1; break; fi
    sleep 0.1
done
[[ -n "$ok" ]] || { cat "$workdir/daemon1.log"; echo "restart-smoke: FAIL slow job never wrote a checkpoint"; exit 1; }

echo "restart-smoke: SIGKILL while the slow job is mid-run"
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
kill "$client_pid" 2>/dev/null || true
wait "$client_pid" 2>/dev/null || true

# The interrupted job's ID is the last "running" record in the journal.
slow_id="$(grep -o '"type":"running","id":"[a-z0-9]*"' "$workdir/journal.jsonl" | tail -1 | sed 's/.*"id":"\([a-z0-9]*\)".*/\1/')"
[[ -n "$slow_id" ]] || { echo "restart-smoke: FAIL no running record in the journal"; exit 1; }

echo "restart-smoke: restarting on the same journal"
start_daemon "$workdir/daemon2.log"
echo "restart-smoke: daemon back at $base, interrupted job $slow_id"

echo "restart-smoke: completed result must survive as a cache hit"
"$workdir/gpmetis" -server "$base" -k 8 -json -o "$workdir/quick2.part" \
    "$workdir/quick.metis" >"$workdir/quick2.json"
grep -q '"cached": true' "$workdir/quick2.json" || { cat "$workdir/quick2.json"; echo "restart-smoke: FAIL recovered result was not served from the cache"; exit 1; }
cmp -s "$workdir/quick1.part" "$workdir/quick2.part" || { echo "restart-smoke: FAIL recovered partition differs from the original"; exit 1; }

echo "restart-smoke: interrupted job must finish from its checkpoint"
state=""
for _ in $(seq 1 600); do
    curl -sf "$base/jobs/$slow_id" >"$workdir/slow_status.json" || { echo "restart-smoke: FAIL job $slow_id unknown after restart"; exit 1; }
    if grep -q '"state":"done"' "$workdir/slow_status.json"; then state=done; break; fi
    if grep -q '"state":"failed"\|"state":"canceled"' "$workdir/slow_status.json"; then break; fi
    sleep 0.2
done
[[ "$state" == done ]] || { cat "$workdir/slow_status.json"; echo "restart-smoke: FAIL interrupted job did not complete after restart"; exit 1; }
grep -q '"resumed":true' "$workdir/slow_status.json" || { cat "$workdir/slow_status.json"; echo "restart-smoke: FAIL job completed but was not resumed from its checkpoint"; exit 1; }
grep -q '"edge_cut"' "$workdir/slow_status.json" || { cat "$workdir/slow_status.json"; echo "restart-smoke: FAIL resumed job carries no result"; exit 1; }

# The daemon's own recovery counters must agree.
curl -sf "$base/metrics" >"$workdir/metrics.prom"
grep -q '^gpmetisd_jobs_readmitted 1$' "$workdir/metrics.prom" || { cat "$workdir/metrics.prom"; echo "restart-smoke: FAIL expected gpmetisd_jobs_readmitted 1"; exit 1; }
grep -q '^gpmetisd_jobs_resumed 1$' "$workdir/metrics.prom" || { cat "$workdir/metrics.prom"; echo "restart-smoke: FAIL expected gpmetisd_jobs_resumed 1"; exit 1; }

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "restart-smoke: OK"

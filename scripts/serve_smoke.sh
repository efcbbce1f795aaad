#!/usr/bin/env bash
# serve_smoke.sh - end-to-end smoke test of the partition-serving daemon.
#
# Boots gpmetisd on a random port with a multi-tenant config, submits a
# job through the gpmetis client, asserts it completes, resubmits the
# identical job, and asserts the second run is a cache hit with the same
# result. Then it walks the overload-control surface: the per-tenant
# metric series, and a rate-limit 429 carrying a Retry-After. Run
# via `make serve-smoke` or directly from the repo root.
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

echo "serve-smoke: building binaries"
go build -o "$workdir/gpmetisd" ./cmd/gpmetisd
go build -o "$workdir/gpmetis" ./cmd/gpmetis
go run ./cmd/graphgen -family delaunay -n 20000 -seed 1 -o "$workdir/smoke.metis"

cat >"$workdir/tenants.json" <<'EOF'
{
  "default": {"weight": 1},
  "paid":    {"weight": 3, "max_queued": 16},
  "probe":   {"rate_per_sec": 0.001, "burst": 1}
}
EOF

echo "serve-smoke: starting gpmetisd on a random port"
"$workdir/gpmetisd" -addr 127.0.0.1:0 -devices 2 \
    -tenants "$workdir/tenants.json" >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

# The daemon prints "gpmetisd: listening on http://HOST:PORT (...)".
base=""
for _ in $(seq 1 50); do
    base="$(sed -n 's/^gpmetisd: listening on \(http:\/\/[^ ]*\).*/\1/p' "$workdir/daemon.log")"
    [[ -n "$base" ]] && break
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$workdir/daemon.log"; echo "serve-smoke: FAIL daemon died on startup"; exit 1; }
    sleep 0.1
done
[[ -n "$base" ]] || { echo "serve-smoke: FAIL daemon never reported its address"; exit 1; }
echo "serve-smoke: daemon at $base"

echo "serve-smoke: submitting job"
"$workdir/gpmetis" -server "$base" -k 16 -json -o "$workdir/run1.part" \
    "$workdir/smoke.metis" >"$workdir/run1.json"
grep -q '"edge_cut"' "$workdir/run1.json" || { cat "$workdir/run1.json"; echo "serve-smoke: FAIL first run carries no result"; exit 1; }
if grep -q '"cached": true' "$workdir/run1.json"; then
    echo "serve-smoke: FAIL first submission must not be a cache hit"
    exit 1
fi

echo "serve-smoke: resubmitting identical job"
"$workdir/gpmetis" -server "$base" -k 16 -json -o "$workdir/run2.part" \
    "$workdir/smoke.metis" >"$workdir/run2.json"
grep -q '"cached": true' "$workdir/run2.json" || { cat "$workdir/run2.json"; echo "serve-smoke: FAIL resubmission was not served from the cache"; exit 1; }
cmp -s "$workdir/run1.part" "$workdir/run2.part" || { echo "serve-smoke: FAIL cached partition differs from the original"; exit 1; }

# The daemon's own counters must agree: exactly one hit, one miss.
curl -sf "$base/metrics" >"$workdir/metrics.prom"
grep -q '^gpmetisd_cache_hits 1$' "$workdir/metrics.prom" || { cat "$workdir/metrics.prom"; echo "serve-smoke: FAIL expected gpmetisd_cache_hits 1"; exit 1; }

echo "serve-smoke: checking observability surface"
# The job lifecycle histograms must be on the scrape from the first
# completed job.
for series in gpmetisd_job_queue_seconds_bucket gpmetisd_job_run_seconds_bucket \
              gpmetisd_job_total_seconds_bucket; do
    grep -q "^$series" "$workdir/metrics.prom" || { echo "serve-smoke: FAIL /metrics missing $series"; exit 1; }
done
curl -sf "$base/admin/status.json" | grep -q '"slots"' || { echo "serve-smoke: FAIL /admin/status.json"; exit 1; }
curl -sf "$base/admin/events" | grep -q '"type":"admit"' || { echo "serve-smoke: FAIL flight recorder holds no admit event"; exit 1; }

echo "serve-smoke: checking the multi-tenant overload surface"
# A submission under a named tenant must show up in the per-tenant
# series; configured tenants are exported even before their first job.
"$workdir/gpmetis" -server "$base" -k 16 -tenant paid -json \
    "$workdir/smoke.metis" >"$workdir/run3.json"
grep -q '"edge_cut"' "$workdir/run3.json" || { cat "$workdir/run3.json"; echo "serve-smoke: FAIL tenant-tagged run carries no result"; exit 1; }
curl -sf "$base/metrics" >"$workdir/metrics.prom"
for series in 'gpmetisd_tenant_weight{tenant="default"}' \
              'gpmetisd_tenant_weight{tenant="paid"} 3' \
              'gpmetisd_tenant_submitted{tenant="paid"}' \
              'gpmetisd_tenant_queued{tenant="paid"}' \
              'gpmetisd_tenant_shed{tenant="paid"} 0' \
              'gpmetisd_tenant_served_modeled_seconds'; do
    grep -qF "$series" "$workdir/metrics.prom" || { echo "serve-smoke: FAIL /metrics missing $series"; exit 1; }
done

echo "serve-smoke: forcing a 429 and checking its Retry-After"
# The probe tenant's token bucket holds one token that refills after
# 1000s: its first submission spends it, and its second is rate limited.
{
    printf '{"graph":"'
    awk '{printf "%s\\n", $0}' "$workdir/smoke.metis"
    printf '","k":16,"tenant":"probe"}'
} >"$workdir/probe.json"
post_probe() {
    curl -s -D "$workdir/probe.headers" -o "$workdir/probe.resp" \
        -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        --data-binary @"$workdir/probe.json" "$base/jobs"
}
code="$(post_probe)"
[[ "$code" == "200" || "$code" == "202" ]] || { cat "$workdir/probe.resp"; echo "serve-smoke: FAIL first probe submission returned HTTP $code, want 200 or 202"; exit 1; }
code="$(post_probe)"
[[ "$code" == "429" ]] || { cat "$workdir/probe.resp"; echo "serve-smoke: FAIL second probe submission returned HTTP $code, want 429"; exit 1; }
grep -q '"code":"rate_limited"' "$workdir/probe.resp" || { cat "$workdir/probe.resp"; echo "serve-smoke: FAIL probe rejection is not rate_limited"; exit 1; }
retry_after="$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9][0-9]*\).*/\1/p' "$workdir/probe.headers")"
[[ -n "$retry_after" && "$retry_after" -ge 1 ]] || { cat "$workdir/probe.headers"; echo "serve-smoke: FAIL 429 carries no positive integer Retry-After"; exit 1; }
echo "serve-smoke: 429 advised Retry-After: $retry_after"
curl -sf "$base/metrics" >"$workdir/metrics2.prom"
grep -q '^gpmetisd_jobs_rejected_ratelimit 1$' "$workdir/metrics2.prom" || { echo "serve-smoke: FAIL gpmetisd_jobs_rejected_ratelimit did not count the probe"; exit 1; }

echo "serve-smoke: rendering the terminal ops view"
"$workdir/gpmetis" -server "$base" -top -top-iterations 1 >"$workdir/top.out"
grep -q 'SLOT' "$workdir/top.out" || { cat "$workdir/top.out"; echo "serve-smoke: FAIL gpmetis -top rendered no slot table"; exit 1; }

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "serve-smoke: OK"

#!/usr/bin/env bash
# cluster_smoke.sh - end-to-end smoke test of the gpmetisd ring tier.
#
# Boots a 3-node consistent-hash ring (RF=2) from one peers.json,
# submits a job through `gpmetis -cluster`, locates the node that ran
# it, asserts a resubmission entering at a different node is answered by
# a cross-node cache peek (bit-identical partition, peek counter
# incremented, modeled network seconds charged) and that the result
# replicated to a ring successor; then SIGKILLs the owner and asserts
# the resubmission is served from the replica — a cache hit, not a
# recompute — completes a job whose replica push to the dead owner is
# skipped, and finally restarts the owner and asserts rejoin catch-up
# pulls its entries back, that job's included, so it serves them alone.
#
# The observability plane rides along: the federated fleet view
# (/admin/cluster/status.json) must list every node up, and
# `gpmetis -top -cluster` must render it with the dead owner down; a forwarded
# job's trace must come back STITCHED (entry + owner spans under
# distinct pids in one document), every internode RPC class (forward,
# replica_put, summary) must land in the per-peer histograms, and
# replication and anti-entropy rounds must each leave a trace-id-bearing
# event in the flight recorder. Run via
# `make serve-smoke` or directly from the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "cluster-smoke: building binaries"
go build -o "$workdir/gpmetisd" ./cmd/gpmetisd
go build -o "$workdir/gpmetis" ./cmd/gpmetis
go run ./cmd/graphgen -family delaunay -n 20000 -seed 1 -o "$workdir/smoke.metis"

port_base=$((20000 + RANDOM % 20000))
addrs=()
for i in 0 1 2; do
    addrs+=("127.0.0.1:$((port_base + i))")
done
cat >"$workdir/peers.json" <<EOF
{"nodes":[
  {"id":0,"addr":"${addrs[0]}"},
  {"id":1,"addr":"${addrs[1]}"},
  {"id":2,"addr":"${addrs[2]}"}
]}
EOF

echo "cluster-smoke: starting a 3-node ring on ports $port_base..$((port_base + 2))"
for i in 0 1 2; do
    "$workdir/gpmetisd" -addr "${addrs[$i]}" -devices 1 \
        -peers "$workdir/peers.json" -node-id "$i" -cluster-probe 300ms \
        >"$workdir/node$i.log" 2>&1 &
    pids[$i]=$!
done
for i in 0 1 2; do
    up=""
    for _ in $(seq 1 50); do
        if grep -q "cluster node $i of 3-node ring" "$workdir/node$i.log"; then up=1; break; fi
        kill -0 "${pids[$i]}" 2>/dev/null || { cat "$workdir/node$i.log"; echo "cluster-smoke: FAIL node $i died on startup"; exit 1; }
        sleep 0.1
    done
    [[ -n "$up" ]] || { cat "$workdir/node$i.log"; echo "cluster-smoke: FAIL node $i never joined the ring"; exit 1; }
done

# Every member must report the ring on /healthz.
for i in 0 1 2; do
    curl -sf "http://${addrs[$i]}/healthz" >"$workdir/healthz$i.json"
    grep -q '"cluster"' "$workdir/healthz$i.json" || { cat "$workdir/healthz$i.json"; echo "cluster-smoke: FAIL node $i /healthz carries no cluster block"; exit 1; }
    grep -q "\"node_id\": *$i" "$workdir/healthz$i.json" || { cat "$workdir/healthz$i.json"; echo "cluster-smoke: FAIL node $i reports the wrong identity"; exit 1; }
done

echo "cluster-smoke: submitting job via gpmetis -cluster (entry node 0)"
"$workdir/gpmetis" -cluster "${addrs[0]},${addrs[1]},${addrs[2]}" -k 16 -json \
    -trace "$workdir/run1.trace.json" -o "$workdir/run1.part" \
    "$workdir/smoke.metis" >"$workdir/run1.json"
grep -q '"edge_cut"' "$workdir/run1.json" || { cat "$workdir/run1.json"; echo "cluster-smoke: FAIL first run carries no result"; exit 1; }
if grep -q '"cached": true' "$workdir/run1.json"; then
    echo "cluster-smoke: FAIL first submission must not be a cache hit"
    exit 1
fi

# Exactly one node ran the job: find the owner by its completion
# counter (with RF=2 the cache entry itself lives on two nodes).
owner=""
for i in 0 1 2; do
    curl -sf "http://${addrs[$i]}/metrics" >"$workdir/metrics$i.prom"
    if grep -q '^gpmetisd_jobs_completed 1$' "$workdir/metrics$i.prom"; then
        [[ -z "$owner" ]] || { echo "cluster-smoke: FAIL nodes $owner and $i both ran the job"; exit 1; }
        owner=$i
    fi
done
[[ -n "$owner" ]] || { echo "cluster-smoke: FAIL no node completed the job"; exit 1; }
echo "cluster-smoke: digest owner is node $owner"

# The result must replicate to one ring successor: two nodes cache it.
deadline=$((SECONDS + 10))
cached=0
while (( SECONDS < deadline )); do
    cached=0
    for i in 0 1 2; do
        if curl -sf "http://${addrs[$i]}/metrics" | grep -q '^gpmetisd_cache_entries 1$'; then
            cached=$((cached + 1))
        fi
    done
    (( cached >= 2 )) && break
    sleep 0.2
done
(( cached == 2 )) || { echo "cluster-smoke: FAIL $cached nodes cache the result, want 2 (RF=2)"; exit 1; }
curl -sf "http://${addrs[$owner]}/metrics" >"$workdir/owner0.prom"
grep -q '^gpmetisd_cluster_replica_pushes 1$' "$workdir/owner0.prom" || { grep ^gpmetisd_cluster "$workdir/owner0.prom"; echo "cluster-smoke: FAIL owner counted no replica push"; exit 1; }
echo "cluster-smoke: result replicated to a ring successor (RF=2)"

# When the job entered at a non-owner, its trace must carry the
# cluster-forward span with the modeled network charge.
if [[ "$owner" != 0 ]]; then
    grep -q 'cluster-forward' "$workdir/run1.trace.json" || { echo "cluster-smoke: FAIL forwarded job trace has no cluster-forward span"; exit 1; }
    grep -q 'net_modeled_seconds' "$workdir/run1.trace.json" || { echo "cluster-smoke: FAIL cluster-forward span carries no network charge"; exit 1; }
    echo "cluster-smoke: forward span present in the job trace"
fi

# Resubmit the identical job entering at a non-owner: a cross-node peek
# must answer it from the owner's cache, bit-identically.
entry=$(( (owner + 1) % 3 ))
echo "cluster-smoke: resubmitting via non-owner entry node $entry"
"$workdir/gpmetis" -cluster "${addrs[$entry]}" -k 16 -json -o "$workdir/run2.part" \
    "$workdir/smoke.metis" >"$workdir/run2.json"
grep -q '"cached": true' "$workdir/run2.json" || { cat "$workdir/run2.json"; echo "cluster-smoke: FAIL resubmission was not a cache hit"; exit 1; }
cmp -s "$workdir/run1.part" "$workdir/run2.part" || { echo "cluster-smoke: FAIL peeked partition differs from the original"; exit 1; }

curl -sf "http://${addrs[$entry]}/metrics" >"$workdir/entry.prom"
grep -q '^gpmetisd_cluster_peek_hits 1$' "$workdir/entry.prom" || { grep ^gpmetisd_cluster "$workdir/entry.prom"; echo "cluster-smoke: FAIL entry node counted no peek hit"; exit 1; }
net_secs="$(sed -n 's/^gpmetisd_cluster_net_modeled_seconds \(.*\)/\1/p' "$workdir/entry.prom")"
awk -v s="$net_secs" 'BEGIN { exit (s > 0 ? 0 : 1) }' || { echo "cluster-smoke: FAIL entry node charged no modeled network seconds ($net_secs)"; exit 1; }
echo "cluster-smoke: peek hit served cross-node ($net_secs modeled network seconds charged)"

# The owner's cache must have answered without rerunning the job.
curl -sf "http://${addrs[$owner]}/metrics" >"$workdir/owner.prom"
grep -q '^gpmetisd_jobs_completed 1$' "$workdir/owner.prom" || { echo "cluster-smoke: FAIL the owner reran a cached job"; exit 1; }

# The federated fleet view on any node must list all three members up.
curl -sf "http://${addrs[$entry]}/admin/cluster/status.json" >"$workdir/fleet.json"
ups="$(grep -o '"up":true' "$workdir/fleet.json" | wc -l)"
[[ "$ups" -eq 3 ]] || { cat "$workdir/fleet.json"; echo "cluster-smoke: FAIL fleet view reports $ups nodes up, want 3"; exit 1; }
echo "cluster-smoke: fleet view lists all 3 nodes up"

# A job that enters at a non-owner must yield ONE stitched trace: the
# entry's spans plus the owner's remote spans under distinct pids.
# Digest ownership depends on k, so hunt a k that node $entry does not
# own (each k forwards with probability ~2/3).
echo "cluster-smoke: hunting a forwarded job for the stitched trace"
stitched=""
pidn=0
for kk in 5 7 9 11 13 15; do
    "$workdir/gpmetis" -cluster "${addrs[$entry]}" -k "$kk" -json \
        -trace "$workdir/stitch.trace.json" -o "$workdir/stitch.part" \
        "$workdir/smoke.metis" >"$workdir/stitch.json"
    pidn="$(grep -o '"pid": *[0-9]*' "$workdir/stitch.trace.json" | tr -d ' ' | sort -u | wc -l)"
    if (( pidn >= 2 )); then stitched=$kk; break; fi
done
[[ -n "$stitched" ]] || { echo "cluster-smoke: FAIL no k in six tries forwarded off node $entry; trace never stitched"; exit 1; }
grep -q 'cluster-forward' "$workdir/stitch.trace.json" || { echo "cluster-smoke: FAIL stitched trace lacks the cluster-forward span"; exit 1; }
echo "cluster-smoke: stitched trace spans $pidn processes (k=$stitched)"

# The forward must land in the entry's per-peer RPC histograms, and the
# owner's replica push must appear as a trace-id-bearing event plus a
# replica_put observation.
curl -sf "http://${addrs[$entry]}/metrics" >"$workdir/entry3.prom"
grep -q 'gpmetisd_cluster_rpc_seconds_bucket{' "$workdir/entry3.prom" || { echo "cluster-smoke: FAIL entry exposes no cluster RPC histograms"; exit 1; }
fwd="$(sed -n 's/^gpmetisd_cluster_rpc_seconds_count{[^}]*rpc="forward"} \([0-9]*\)$/\1/p' "$workdir/entry3.prom" | awk '{s+=$1} END {print s+0}')"
(( fwd >= 1 )) || { grep ^gpmetisd_cluster_rpc "$workdir/entry3.prom"; echo "cluster-smoke: FAIL entry observed no forward RPC in the histograms"; exit 1; }
curl -sf "http://${addrs[$owner]}/metrics" >"$workdir/owner3.prom"
rput="$(sed -n 's/^gpmetisd_cluster_rpc_seconds_count{[^}]*rpc="replica_put"} \([0-9]*\)$/\1/p' "$workdir/owner3.prom" | awk '{s+=$1} END {print s+0}')"
(( rput >= 1 )) || { grep ^gpmetisd_cluster_rpc "$workdir/owner3.prom"; echo "cluster-smoke: FAIL owner observed no replica_put RPC in the histograms"; exit 1; }
curl -sf "http://${addrs[$owner]}/admin/events" >"$workdir/owner.events.json"
rep_ev="$(grep -o '{[^{}]*"type":"cluster_replicate"[^{}]*}' "$workdir/owner.events.json" | head -1)"
[[ -n "$rep_ev" ]] || { echo "cluster-smoke: FAIL owner recorded no cluster_replicate event"; exit 1; }
grep -q '"trace_id":"' <<<"$rep_ev" || { echo "cluster-smoke: FAIL cluster_replicate event carries no trace_id: $rep_ev"; exit 1; }
echo "cluster-smoke: forward + replica_put observed in RPC histograms; replication event carries a trace"

echo "cluster-smoke: SIGKILLing owner node $owner"
kill -9 "${pids[$owner]}"
wait "${pids[$owner]}" 2>/dev/null || true
pids[$owner]=""

# The dead owner's share must fail over to its replica: the identical
# submission is a cache hit on a survivor — bit-identical, never
# recomputed — and the entry accounts the failover.
survivor=$(( (owner + 2) % 3 ))
# The stitch hunt above ran real jobs on the survivors, so compare
# their completion counters against a baseline rather than zero.
jc_entry_before="$(curl -sf "http://${addrs[$entry]}/metrics" | sed -n 's/^gpmetisd_jobs_completed \([0-9]*\).*/\1/p')"
jc_surv_before="$(curl -sf "http://${addrs[$survivor]}/metrics" | sed -n 's/^gpmetisd_jobs_completed \([0-9]*\).*/\1/p')"
echo "cluster-smoke: resubmitting with the owner dead (entry $entry, survivor $survivor)"
"$workdir/gpmetis" -cluster "${addrs[$entry]},${addrs[$survivor]}" -k 16 -json \
    -o "$workdir/run3.part" "$workdir/smoke.metis" >"$workdir/run3.json"
grep -q '"edge_cut"' "$workdir/run3.json" || { cat "$workdir/run3.json"; echo "cluster-smoke: FAIL failover run carries no result"; exit 1; }
grep -q '"cached": true' "$workdir/run3.json" || { cat "$workdir/run3.json"; echo "cluster-smoke: FAIL failover run was recomputed instead of replica-served"; exit 1; }
cmp -s "$workdir/run1.part" "$workdir/run3.part" || { echo "cluster-smoke: FAIL replica-served partition differs from the original"; exit 1; }

# Neither survivor may have rerun the job: the replica answered it.
# (The counter registers lazily, so an absent line also means zero.)
jc="$(curl -sf "http://${addrs[$entry]}/metrics" | sed -n 's/^gpmetisd_jobs_completed \([0-9]*\).*/\1/p')"
[[ "${jc:-0}" -eq "${jc_entry_before:-0}" ]] || { echo "cluster-smoke: FAIL entry $entry recomputed a replicated job (jobs_completed ${jc_entry_before:-0} -> ${jc:-0})"; exit 1; }
jc="$(curl -sf "http://${addrs[$survivor]}/metrics" | sed -n 's/^gpmetisd_jobs_completed \([0-9]*\).*/\1/p')"
[[ "${jc:-0}" -eq "${jc_surv_before:-0}" ]] || { echo "cluster-smoke: FAIL survivor $survivor recomputed a replicated job (jobs_completed ${jc_surv_before:-0} -> ${jc:-0})"; exit 1; }

curl -sf "http://${addrs[$entry]}/metrics" >"$workdir/entry2.prom"
failovers="$(sed -n 's/^gpmetisd_cluster_failovers_total \([0-9]*\).*/\1/p' "$workdir/entry2.prom")"
[[ -n "$failovers" && "$failovers" -ge 1 ]] || { grep ^gpmetisd_cluster "$workdir/entry2.prom"; echo "cluster-smoke: FAIL entry node counted no failover"; exit 1; }
echo "cluster-smoke: replica served the dead owner's digest (failovers_total=$failovers, no recompute)"

# The prober must have quarantined the dead peer by now.
deadline=$((SECONDS + 5))
down=""
while (( SECONDS < deadline )); do
    if curl -sf "http://${addrs[$entry]}/healthz" | grep -q '"state": *"down"'; then down=1; break; fi
    sleep 0.2
done
[[ -n "$down" ]] || { echo "cluster-smoke: FAIL the dead owner was never marked down"; exit 1; }
echo "cluster-smoke: dead owner quarantined by health probes"

# gpmetis -top -cluster renders the fleet view: one row per node, the
# answering entry as self, the survivor up and the dead owner down.
"$workdir/gpmetis" -top -cluster "${addrs[$entry]},${addrs[$survivor]}" -top-iterations 1 >"$workdir/fleet.top"
rows="$(grep -cE '^ *[0-9]+ +(self|up|down|left) ' "$workdir/fleet.top" || true)"
[[ "$rows" -eq 3 ]] || { cat "$workdir/fleet.top"; echo "cluster-smoke: FAIL gpmetis -top -cluster shows $rows node rows, want 3"; exit 1; }
for want in "$entry self" "$survivor up" "$owner down"; do
    read -r id state <<<"$want"
    grep -qE "^ *$id +$state +${addrs[$id]} " "$workdir/fleet.top" || { cat "$workdir/fleet.top"; echo "cluster-smoke: FAIL gpmetis -top -cluster shows node $id not $state"; exit 1; }
done
echo "cluster-smoke: gpmetis -top -cluster shows node $entry self, $survivor up, $owner down"

# With the owner dead, hunt a job whose RF=2 replica set includes it:
# the survivor that computes it skips the push to the dead node, so no
# replica push is counted (each k lands on the dead node with
# probability ~2/3).
counter() {
    local v
    v="$(curl -sf "http://$1/metrics" | sed -n "s/^gpmetisd_$2 \([0-9]*\).*/\1/p")"
    echo "${v:-0}"
}
echo "cluster-smoke: completing a job whose replica set includes the dead owner"
missed=""
for kk in 6 10 14 18 22 26; do
    pushes=$(( $(counter "${addrs[$entry]}" cluster_replica_pushes) + $(counter "${addrs[$survivor]}" cluster_replica_pushes) ))
    "$workdir/gpmetis" -cluster "${addrs[$entry]},${addrs[$survivor]}" -k "$kk" -json \
        -o "$workdir/missed.part" "$workdir/smoke.metis" >"$workdir/missed.json"
    pushed=""
    for _ in $(seq 1 20); do
        now=$(( $(counter "${addrs[$entry]}" cluster_replica_pushes) + $(counter "${addrs[$survivor]}" cluster_replica_pushes) ))
        if (( now > pushes )); then pushed=1; break; fi
        sleep 0.1
    done
    if [[ -z "$pushed" ]]; then missed=$kk; break; fi
done
[[ -n "$missed" ]] || { echo "cluster-smoke: FAIL no k in six tries had the dead owner in its replica set"; exit 1; }
echo "cluster-smoke: k=$missed completed with its push to the dead owner skipped"

# Restart the owner from nothing on the same address: rejoin catch-up
# must pull the entries it owns back from its replicas.
echo "cluster-smoke: restarting owner node $owner for rejoin catch-up"
"$workdir/gpmetisd" -addr "${addrs[$owner]}" -devices 1 \
    -peers "$workdir/peers.json" -node-id "$owner" -cluster-probe 300ms \
    >"$workdir/node$owner.restart.log" 2>&1 &
pids[$owner]=$!
up=""
for _ in $(seq 1 50); do
    if grep -q "cluster node $owner of 3-node ring" "$workdir/node$owner.restart.log"; then up=1; break; fi
    kill -0 "${pids[$owner]}" 2>/dev/null || { cat "$workdir/node$owner.restart.log"; echo "cluster-smoke: FAIL owner died on restart"; exit 1; }
    sleep 0.1
done
[[ -n "$up" ]] || { cat "$workdir/node$owner.restart.log"; echo "cluster-smoke: FAIL restarted owner never rejoined the ring"; exit 1; }
deadline=$((SECONDS + 15))
until grep -q "rejoin catch-up complete" "$workdir/node$owner.restart.log"; do
    (( SECONDS < deadline )) || { cat "$workdir/node$owner.restart.log"; echo "cluster-smoke: FAIL restarted owner never finished rejoin catch-up"; exit 1; }
    sleep 0.2
done

deadline=$((SECONDS + 15))
caught_up=""
while (( SECONDS < deadline )); do
    curl -sf "http://${addrs[$owner]}/metrics" >"$workdir/owner2.prom" 2>/dev/null || { sleep 0.2; continue; }
    pulled="$(sed -n 's/^gpmetisd_cluster_repair_pulled \([0-9]*\).*/\1/p' "$workdir/owner2.prom")"
    if [[ -n "$pulled" && "$pulled" -ge 1 ]] && grep -q '^gpmetisd_cache_entries [1-9]' "$workdir/owner2.prom"; then
        caught_up=1
        break
    fi
    sleep 0.2
done
[[ -n "$caught_up" ]] || { grep -E '^gpmetisd_(cluster_|cache_)' "$workdir/owner2.prom" || true; echo "cluster-smoke: FAIL restarted owner never pulled its entries back"; exit 1; }
echo "cluster-smoke: rejoin catch-up restored the owner's cache (repair_pulled=$pulled)"

# The catch-up round itself must be observable: a summary RPC in the
# restarted owner's histograms and a trace-id-bearing repair event.
sumc="$(sed -n 's/^gpmetisd_cluster_rpc_seconds_count{[^}]*rpc="summary"} \([0-9]*\)$/\1/p' "$workdir/owner2.prom" | awk '{s+=$1} END {print s+0}')"
(( sumc >= 1 )) || { grep ^gpmetisd_cluster_rpc "$workdir/owner2.prom"; echo "cluster-smoke: FAIL restarted owner observed no anti-entropy summary RPC"; exit 1; }
curl -sf "http://${addrs[$owner]}/admin/events" >"$workdir/owner.rejoin.events.json"
rep_ev="$(grep -o '{[^{}]*"type":"cluster_repair"[^{}]*}' "$workdir/owner.rejoin.events.json" | head -1)"
[[ -n "$rep_ev" ]] || { echo "cluster-smoke: FAIL restarted owner recorded no cluster_repair event"; exit 1; }
grep -q '"trace_id":"' <<<"$rep_ev" || { echo "cluster-smoke: FAIL cluster_repair event carries no trace_id: $rep_ev"; exit 1; }
echo "cluster-smoke: anti-entropy catch-up traced (summary RPCs observed, repair event carries a trace)"

# The restarted owner now serves its digest locally, with no recompute.
"$workdir/gpmetis" -cluster "${addrs[$owner]}" -k 16 -json -o "$workdir/run4.part" \
    "$workdir/smoke.metis" >"$workdir/run4.json"
grep -q '"cached": true' "$workdir/run4.json" || { cat "$workdir/run4.json"; echo "cluster-smoke: FAIL restarted owner missed its repaired cache"; exit 1; }
cmp -s "$workdir/run1.part" "$workdir/run4.part" || { echo "cluster-smoke: FAIL repaired partition differs from the original"; exit 1; }
jc="$(curl -sf "http://${addrs[$owner]}/metrics" | sed -n 's/^gpmetisd_jobs_completed \([0-9]*\).*/\1/p')"
[[ -z "$jc" || "$jc" -eq 0 ]] || { echo "cluster-smoke: FAIL restarted owner recomputed a repaired job (jobs_completed=$jc)"; exit 1; }

# The job completed while the owner was dead must be on the restarted
# owner too: with both other nodes killed, it alone answers that job
# from its own cache, bit-identically and without a recompute.
echo "cluster-smoke: killing nodes $entry and $survivor; the restarted owner must serve k=$missed alone"
for i in "$entry" "$survivor"; do
    kill -9 "${pids[$i]}"
    wait "${pids[$i]}" 2>/dev/null || true
    pids[$i]=""
done
"$workdir/gpmetis" -cluster "${addrs[$owner]}" -k "$missed" -json -o "$workdir/missed2.part" \
    "$workdir/smoke.metis" >"$workdir/missed2.json"
grep -q '"cached": true' "$workdir/missed2.json" || { cat "$workdir/missed2.json"; echo "cluster-smoke: FAIL restarted owner lacks the job completed while it was dead"; exit 1; }
cmp -s "$workdir/missed.part" "$workdir/missed2.part" || { echo "cluster-smoke: FAIL caught-up partition differs from the original"; exit 1; }
[[ "$(counter "${addrs[$owner]}" jobs_completed)" -eq 0 ]] || { echo "cluster-smoke: FAIL restarted owner recomputed the job completed while it was dead"; exit 1; }
echo "cluster-smoke: restarted owner holds the job completed while it was dead"

for i in 0 1 2; do
    [[ -n "${pids[$i]}" ]] && kill "${pids[$i]}" 2>/dev/null || true
done
echo "cluster-smoke: OK"

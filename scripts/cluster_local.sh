#!/usr/bin/env bash
# cluster_local.sh — bring up an N-process election cluster on localhost
# and run one wire-level election per registered backend.
#
# Usage: scripts/cluster_local.sh [shards] [n] [graph]
#   shards  process count (default 3: one coordinator + two workers)
#   n       graph size (default 48)
#   graph   graph family (default clique)
#
# The script builds cmd/electnode, starts the coordinator in -serve mode
# on an ephemeral port, joins shards-1 workers, submits one election per
# backend (gilbertrs18, floodmax, kpprt), asserts exactly one leader per
# election, and checks every process exits cleanly on shutdown.
#
# A compression pass then brings up a fresh -compress session and
# asserts a floodmax election actually crossed flate-compressed (with
# fewer compressed than raw bytes) and still elected one leader.
#
# Two fault passes follow: a -drop/-delay-max election whose outcome and
# message counts must match a 1-shard run of the same spec (the
# determinism contract under faults, at the process level), and a
# -supervise session where the leader's shard process is SIGKILLed
# mid-lease — the supervisor must print the death, re-elect, fold the
# restarted shard back in, and shut down with three reigns. Every wait
# has a timeout; a hang fails the script. This is also the CI cluster
# smoke job.
#
# An observability pass rides along: the first coordinator serves
# -debug-addr, whose /metrics, /healthz, /flightz, and /debug/pprof/
# must all answer with live data, and the supervised pass runs with
# -flight-dump, whose re-election must leave a non-empty NDJSON
# flight-recorder dump.
set -euo pipefail

SHARDS="${1:-3}"
N="${2:-48}"
GRAPH="${3:-clique}"
SEED="${CLUSTER_SEED:-7}"

workdir="$(mktemp -d)"
bin="$workdir/electnode"
ready="$workdir/coordinator.addr"
worker_pids=()
coord_pid=""

cleanup() {
    # Best-effort teardown for early exits; the happy path has already
    # waited for everything.
    [ -n "$coord_pid" ] && kill "$coord_pid" 2>/dev/null || true
    for pid in "${worker_pids[@]:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "cluster_local: building electnode..."
go build -o "$bin" ./cmd/electnode

echo "cluster_local: starting coordinator (-serve, $SHARDS shards, debug endpoints)..."
"$bin" -listen 127.0.0.1:0 -shards "$SHARDS" -serve -ready-file "$ready" \
    -debug-addr 127.0.0.1:0 \
    2>"$workdir/coordinator.log" &
coord_pid=$!

for _ in $(seq 1 100); do
    [ -s "$ready" ] && break
    sleep 0.1
done
[ -s "$ready" ] || { echo "cluster_local: coordinator never wrote $ready" >&2; exit 1; }
addr="$(cat "$ready")"
echo "cluster_local: coordinator on $addr"

for shard in $(seq 1 $((SHARDS - 1))); do
    "$bin" -bootstrap "$addr" -shard "$shard" -listen 127.0.0.1:0 \
        2>"$workdir/worker$shard.log" &
    worker_pids+=($!)
    echo "cluster_local: worker shard $shard started (pid ${worker_pids[-1]})"
done

fail=0
for backend in gilbertrs18 floodmax kpprt; do
    echo "cluster_local: electing with $backend on $GRAPH n=$N seed=$SEED..."
    out="$("$bin" -submit "$addr" -graph "$GRAPH" -n "$N" -algo "$backend" -seed "$SEED")" || {
        echo "cluster_local: FAIL: $backend submission errored" >&2
        fail=1
        continue
    }
    # "outcome: leaders=[27] success=true ..." — exactly one leader index.
    leaders_list="$(printf '%s\n' "$out" | sed -n 's/^outcome: leaders=\[\([0-9 ]*\)\].*/\1/p')"
    leaders="$(printf '%s' "$leaders_list" | wc -w)"
    envelopes="$(printf '%s\n' "$out" | sed -n 's/^wire: .*envelopes=\([0-9]*\).*/\1/p')"
    if [ "$leaders" != "1" ] || ! printf '%s\n' "$out" | grep -q 'success=true'; then
        echo "cluster_local: FAIL: $backend elected $leaders leader(s)" >&2
        printf '%s\n' "$out" >&2
        fail=1
    elif [ -z "$envelopes" ] || [ "$envelopes" -eq 0 ]; then
        echo "cluster_local: FAIL: $backend sent no envelopes over the wire" >&2
        printf '%s\n' "$out" >&2
        fail=1
    else
        echo "cluster_local: OK: $backend elected exactly one leader ($envelopes envelopes)"
    fi
done

# ---- observability pass: electnode debug endpoints --------------------------

# The coordinator exposed -debug-addr; the elections above must show up
# in its /metrics, the flight recorder must hold trace events, and pprof
# must answer.
dbg="$(sed -n 's#.*debug endpoints on http://\([^ ]*\) .*#\1#p' "$workdir/coordinator.log" | head -n1)"
if [ -n "$dbg" ]; then
    nmetrics="$(curl -fsS "http://$dbg/metrics")"
    njobs="$(printf '%s\n' "$nmetrics" | awk '/^electnode_jobs_total /{print $2}')"
    nframes="$(printf '%s\n' "$nmetrics" | awk '/^electnode_wire_frames_total /{print $2}')"
    ntrace="$(printf '%s\n' "$nmetrics" | awk '/^electnode_trace_events_total /{print $2}')"
    if [ -z "$njobs" ] || [ "$njobs" -lt 3 ]; then
        echo "cluster_local: FAIL: /metrics shows $njobs jobs after 3 elections" >&2
        fail=1
    elif [ -z "$nframes" ] || [ "$nframes" -eq 0 ]; then
        echo "cluster_local: FAIL: /metrics shows no wire frames" >&2
        fail=1
    elif [ -z "$ntrace" ] || [ "$ntrace" -eq 0 ]; then
        echo "cluster_local: FAIL: /metrics shows no trace events (flight recorder dark)" >&2
        fail=1
    elif ! curl -fsS "http://$dbg/healthz" | grep -q ok; then
        echo "cluster_local: FAIL: /healthz did not answer ok" >&2
        fail=1
    elif ! curl -fsS "http://$dbg/debug/pprof/" | grep -qi profile; then
        echo "cluster_local: FAIL: /debug/pprof/ did not serve an index" >&2
        fail=1
    elif ! curl -fsS "http://$dbg/flightz" -o "$workdir/flightz.ndjson" \
        || ! head -n1 "$workdir/flightz.ndjson" | grep -q '"ts"'; then
        echo "cluster_local: FAIL: /flightz snapshot is empty" >&2
        fail=1
    else
        echo "cluster_local: OK: debug endpoints live ($njobs jobs, $nframes frames, $ntrace trace events)"
    fi
else
    echo "cluster_local: FAIL: coordinator never announced its debug address" >&2
    cat "$workdir/coordinator.log" >&2
    fail=1
fi

# ---- electd -cluster pass: wire counters through /metrics -------------------

# electd dispatching to this cluster must export the barrier counter:
# barriers accumulate.
echo "cluster_local: electd -cluster pass: /metrics wire counters..."
electd_bin="$workdir/electd"
go build -o "$electd_bin" ./cmd/electd
eready="$workdir/electd.addr"
"$electd_bin" -addr 127.0.0.1:0 -cluster "$addr" -ready-file "$eready" \
    >"$workdir/electd.log" 2>&1 &
electd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$eready" ] && break
    sleep 0.1
done
if [ -s "$eready" ]; then
    ebase="http://$(cat "$eready")"
    curl -fsS -X POST "$ebase/v1/graphs" \
        -d "{\"name\":\"g\",\"spec\":{\"family\":\"$GRAPH\",\"n\":$N}}" >/dev/null
    job="$(curl -fsS -X POST "$ebase/v1/elections" -d '{"seed":7,"points":[{"graph":"g","trials":2}]}' \
        | tr -d ' \n' | grep -o '"id":"[^"]*"' | head -n1 | cut -d'"' -f4)"
    for _ in $(seq 1 300); do
        state="$(curl -fsS "$ebase/v1/elections/$job" | tr -d ' \n' | grep -o '"state":"[^"]*"' | head -n1 | cut -d'"' -f4)"
        [ "$state" = "done" ] && break
        [ "$state" = "failed" ] && break
        sleep 0.2
    done
    emetrics="$(curl -fsS "$ebase/metrics")"
    ebarriers="$(printf '%s\n' "$emetrics" | awk '/^electd_cluster_barriers_total /{print $2}')"
    if [ "$state" != "done" ]; then
        echo "cluster_local: FAIL: electd -cluster job ended in state '$state'" >&2
        cat "$workdir/electd.log" >&2
        fail=1
    elif [ -z "$ebarriers" ] || [ "$ebarriers" -eq 0 ]; then
        echo "cluster_local: FAIL: electd reported no cluster barriers" >&2
        printf '%s\n' "$emetrics" | grep electd_cluster >&2
        fail=1
    else
        echo "cluster_local: OK: electd /metrics shows $ebarriers barriers"
    fi
else
    echo "cluster_local: FAIL: electd never wrote its ready file" >&2
    cat "$workdir/electd.log" >&2
    fail=1
fi
kill -TERM "$electd_pid" 2>/dev/null || true
wait "$electd_pid" 2>/dev/null || true

# ---- fault pass 1: drop/delay election, wire vs 1-shard parity --------------

# The seed is pinned to one where the faulty gilbertrs18 election still
# succeeds — the parity check is seed-exact either way.
FAULT_SEED="${CLUSTER_FAULT_SEED:-3}"
fault_args=(-graph "$GRAPH" -n "$N" -algo gilbertrs18 -seed "$FAULT_SEED" -drop 0.05 -delay-max 2)
echo "cluster_local: fault pass: gilbertrs18 with -drop 0.05 -delay-max 2..."
if out_wire="$("$bin" -submit "$addr" "${fault_args[@]}")" \
    && out_ref="$("$bin" -listen 127.0.0.1:0 -shards 1 "${fault_args[@]}")"; then
    wire_outcome="$(printf '%s\n' "$out_wire" | grep '^outcome:')"
    ref_outcome="$(printf '%s\n' "$out_ref" | grep '^outcome:')"
    wire_msgs="$(printf '%s\n' "$out_wire" | grep '^messages=')"
    ref_msgs="$(printf '%s\n' "$out_ref" | grep '^messages=')"
    if [ "$wire_outcome" != "$ref_outcome" ] || [ "$wire_msgs" != "$ref_msgs" ]; then
        echo "cluster_local: FAIL: faulty run diverged between $SHARDS shards and 1 shard" >&2
        printf 'wire: %s | %s\nref:  %s | %s\n' "$wire_outcome" "$wire_msgs" "$ref_outcome" "$ref_msgs" >&2
        fail=1
    elif ! printf '%s\n' "$out_wire" | grep -q 'success=true'; then
        echo "cluster_local: FAIL: faulty election did not elect a unique leader" >&2
        printf '%s\n' "$out_wire" >&2
        fail=1
    else
        echo "cluster_local: OK: faulty election matched the 1-shard run ($wire_outcome)"
    fi
else
    echo "cluster_local: FAIL: faulty election errored" >&2
    fail=1
fi

echo "cluster_local: shutting down (SIGTERM to coordinator)..."
kill -TERM "$coord_pid"
if ! wait "$coord_pid"; then
    echo "cluster_local: FAIL: coordinator exited non-zero" >&2
    cat "$workdir/coordinator.log" >&2
    fail=1
fi
coord_pid=""
for i in "${!worker_pids[@]}"; do
    if ! wait "${worker_pids[$i]}"; then
        echo "cluster_local: FAIL: worker $((i + 1)) exited non-zero" >&2
        cat "$workdir/worker$((i + 1)).log" >&2
        fail=1
    fi
done
worker_pids=()

# ---- compression pass: -compress session, assert compressed frames ----------

echo "cluster_local: compression pass: fresh -compress session, floodmax..."
zready="$workdir/zcoordinator.addr"
"$bin" -listen 127.0.0.1:0 -shards "$SHARDS" -serve -compress -ready-file "$zready" \
    2>"$workdir/zcoordinator.log" &
coord_pid=$!
for _ in $(seq 1 100); do
    [ -s "$zready" ] && break
    sleep 0.1
done
[ -s "$zready" ] || { echo "cluster_local: -compress coordinator never wrote $zready" >&2; exit 1; }
zaddr="$(cat "$zready")"
for shard in $(seq 1 $((SHARDS - 1))); do
    "$bin" -bootstrap "$zaddr" -shard "$shard" -listen 127.0.0.1:0 \
        2>"$workdir/zworker$shard.log" &
    worker_pids+=($!)
done

# FloodMax floods every edge every round: the heaviest flushes, so the
# threshold-gated compressor must actually engage.
if zout="$("$bin" -submit "$zaddr" -graph "$GRAPH" -n "$N" -algo floodmax -seed "$SEED")"; then
    zframes="$(printf '%s\n' "$zout" | sed -n 's/^compression: compressed_frames=\([0-9]*\).*/\1/p')"
    zraw="$(printf '%s\n' "$zout" | sed -n 's/^compression: .*raw_bytes=\([0-9]*\).*/\1/p')"
    zbytes="$(printf '%s\n' "$zout" | sed -n 's/^compression: .*compressed_bytes=\([0-9]*\).*/\1/p')"
    if ! printf '%s\n' "$zout" | grep -q 'success=true'; then
        echo "cluster_local: FAIL: compressed election did not elect a unique leader" >&2
        printf '%s\n' "$zout" >&2
        fail=1
    elif [ -z "$zframes" ] || [ "$zframes" -eq 0 ]; then
        echo "cluster_local: FAIL: -compress session sent no compressed frames" >&2
        printf '%s\n' "$zout" >&2
        fail=1
    elif [ "$zbytes" -ge "$zraw" ]; then
        echo "cluster_local: FAIL: compression grew the wire ($zraw raw -> $zbytes compressed)" >&2
        fail=1
    else
        echo "cluster_local: OK: compressed election held ($zframes compressed frames, $zraw -> $zbytes bytes)"
    fi
else
    echo "cluster_local: FAIL: compressed election errored" >&2
    fail=1
fi

kill -TERM "$coord_pid"
if ! wait "$coord_pid"; then
    echo "cluster_local: FAIL: -compress coordinator exited non-zero" >&2
    cat "$workdir/zcoordinator.log" >&2
    fail=1
fi
coord_pid=""
for i in "${!worker_pids[@]}"; do
    if ! wait "${worker_pids[$i]}"; then
        echo "cluster_local: FAIL: -compress worker $((i + 1)) exited non-zero" >&2
        cat "$workdir/zworker$((i + 1)).log" >&2
        fail=1
    fi
done
worker_pids=()

# ---- fault pass 2: supervised session, SIGKILL the leader's shard -----------

# await_line FILE PATTERN [TIMEOUT_S]: poll for a line; a hang is a failure.
await_line() {
    local file="$1" pat="$2" timeout="${3:-60}" i
    for i in $(seq 1 $((timeout * 10))); do
        grep -q "$pat" "$file" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "cluster_local: FAIL: timed out (${timeout}s) waiting for '$pat'" >&2
    return 1
}

echo "cluster_local: supervised pass: -supervise with kpprt, killing the leader's shard..."
sready="$workdir/supervisor.addr"
slog="$workdir/supervisor.out"
flight_dump="$workdir/flight.ndjson"
"$bin" -listen 127.0.0.1:0 -shards "$SHARDS" -supervise -ready-file "$sready" \
    -graph "$GRAPH" -n "$N" -algo kpprt -seed "$SEED" \
    -flight-dump "$flight_dump" \
    >"$slog" 2>"$workdir/supervisor.log" &
coord_pid=$!
for _ in $(seq 1 100); do
    [ -s "$sready" ] && break
    sleep 0.1
done
[ -s "$sready" ] || { echo "cluster_local: supervisor never wrote $sready" >&2; exit 1; }
saddr="$(cat "$sready")"
for shard in $(seq 1 $((SHARDS - 1))); do
    "$bin" -bootstrap "$saddr" -shard "$shard" -listen 127.0.0.1:0 \
        2>"$workdir/sworker$shard.log" &
    worker_pids+=($!)
done

await_line "$slog" '^lease: epoch=1 '
# Kill the process hosting the leader (shard 0 is the coordinator and
# cannot die; fall back to shard 1).
victim="$(sed -n 's/^lease: epoch=1 .*shard=\([0-9]*\)$/\1/p' "$slog")"
[ "$victim" -ge 1 ] 2>/dev/null || victim=1
victim_pid="${worker_pids[$((victim - 1))]}"
echo "cluster_local: lease granted; SIGKILLing shard $victim (pid $victim_pid)..."
kill -9 "$victim_pid"
wait "$victim_pid" 2>/dev/null || true

await_line "$slog" '^death: .*shard='"$victim"
await_line "$slog" '^lease: epoch=2 '
# The death event must have dumped the flight recorder: a non-empty
# NDJSON file whose first line is a trace event.
flight_ok=0
for _ in $(seq 1 50); do
    [ -s "$flight_dump" ] && flight_ok=1 && break
    sleep 0.1
done
if [ "$flight_ok" != "1" ] || ! head -n1 "$flight_dump" | grep -q '"ts"'; then
    echo "cluster_local: FAIL: re-election did not produce a flight-recorder dump at $flight_dump" >&2
    fail=1
else
    echo "cluster_local: OK: re-election dumped the flight recorder ($(wc -l <"$flight_dump") events)"
fi
echo "cluster_local: death detected, epoch 2 lease granted; restarting shard $victim..."
"$bin" -bootstrap "$saddr" -shard "$victim" -listen 127.0.0.1:0 \
    2>"$workdir/sworker$victim.rejoin.log" &
worker_pids[$((victim - 1))]=$!
await_line "$slog" '^rejoin: .*shard='"$victim"
await_line "$slog" '^lease: epoch=3 '

echo "cluster_local: rejoin folded in; stopping the supervision (SIGTERM)..."
kill -TERM "$coord_pid"
if ! wait "$coord_pid"; then
    echo "cluster_local: FAIL: supervisor exited non-zero" >&2
    cat "$workdir/supervisor.log" >&2
    fail=1
fi
coord_pid=""
for i in "${!worker_pids[@]}"; do
    if ! wait "${worker_pids[$i]}"; then
        echo "cluster_local: FAIL: supervised worker $((i + 1)) exited non-zero" >&2
        fail=1
    fi
done
worker_pids=()
reigns="$(grep -c '^reign: ' "$slog" || true)"
if [ "$reigns" != "3" ]; then
    echo "cluster_local: FAIL: expected 3 reigns, supervisor reported $reigns" >&2
    cat "$slog" >&2
    fail=1
else
    echo "cluster_local: OK: supervised session survived a leader-shard kill and a rejoin (3 reigns)"
fi

if [ "$fail" -ne 0 ]; then
    echo "cluster_local: FAILED" >&2
    exit 1
fi
echo "cluster_local: all backends elected one leader; faulty and supervised passes held. PASS"

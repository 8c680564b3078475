#!/usr/bin/env bash
# End-to-end smoke of the electd daemon, as run by the CI smoke job:
# build it, start it on an ephemeral port, register a clique, submit a
# small election batch over HTTP, require a unique leader in every trial,
# require a spectral-cache hit on a second job, exercise the per-point
# "algorithm" field against the floodmax and kpprt backends (plus the
# per-backend /metrics counters), run a job under a delay plane whose
# trace must stay within 5 events per round, and exercise graceful SIGTERM
# shutdown.
# Needs only bash, curl, and grep.
set -euo pipefail

workdir="$(mktemp -d)"
bin="$workdir/electd"
addrfile="$workdir/electd.addr"
logfile="$workdir/electd.log"
pid=""

cleanup() {
  if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
    kill -KILL "$pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "smoke: FAIL: $*" >&2
  echo "--- electd log ---" >&2
  cat "$logfile" >&2 || true
  exit 1
}

# Extract "field":value from a one-object JSON response without jq.
json_field() { # json_field <json> <field>
  printf '%s' "$1" | tr -d ' \n' | grep -o "\"$2\":[^,}]*" | head -n1 | cut -d: -f2- | tr -d '"'
}

echo "smoke: building electd"
go build -o "$bin" ./cmd/electd

echo "smoke: starting daemon on an ephemeral port"
"$bin" -addr 127.0.0.1:0 -ready-file "$addrfile" -queue 8 >"$logfile" 2>&1 &
pid=$!

for _ in $(seq 1 100); do
  [ -s "$addrfile" ] && break
  kill -0 "$pid" 2>/dev/null || fail "daemon exited before binding"
  sleep 0.1
done
[ -s "$addrfile" ] || fail "daemon never wrote the ready file"
base="http://$(cat "$addrfile")"
echo "smoke: daemon at $base"

curl -fsS "$base/healthz" | grep -q '"ok"' || fail "healthz not ok"

echo "smoke: registering a 32-clique"
curl -fsS -X POST "$base/v1/graphs" \
  -d '{"name":"k32","spec":{"family":"clique","n":32}}' >/dev/null \
  || fail "graph registration"

submit() {
  curl -fsS -X POST "$base/v1/elections" \
    -d '{"seed":7,"points":[{"graph":"k32","trials":6}]}'
}

wait_done() { # wait_done <job-id>
  local status state
  for _ in $(seq 1 300); do
    status="$(curl -fsS "$base/v1/elections/$1")"
    state="$(json_field "$status" state)"
    case "$state" in
      done) printf '%s' "$status"; return 0 ;;
      failed) fail "job $1 failed: $status" ;;
    esac
    sleep 0.2
  done
  fail "job $1 did not finish"
}

echo "smoke: submitting an election batch"
resp="$(submit)" || fail "submission"
job="$(json_field "$resp" id)"
[ -n "$job" ] || fail "no job id in $resp"

status="$(wait_done "$job")"
echo "$status" | tr -d ' \n' | grep -q '"unique_leader":true' \
  || fail "no unique leader: $status"
echo "$status" | tr -d ' \n' | grep -q '"one":6' \
  || fail "expected 6/6 single-leader trials: $status"
echo "smoke: unique leader in all 6 trials"

echo "smoke: second job must hit the spectral cache"
resp="$(submit)" || fail "second submission"
wait_done "$(json_field "$resp" id)" >/dev/null
metrics="$(curl -fsS "$base/metrics")"
echo "$metrics" | grep -q '^electd_spectral_computes_total 1$' \
  || fail "profile recomputed: $(echo "$metrics" | grep electd_spectral)"
hits="$(echo "$metrics" | grep '^electd_spectral_cache_hits_total' | awk '{print $2}')"
[ "$hits" -ge 1 ] || fail "no cache hit observed: $metrics"
echo "smoke: cache hits=$hits computes=1"

echo "smoke: algorithm backends (floodmax, kpprt) via the per-point field"
submit_algo() { # submit_algo <algorithm>
  curl -fsS -X POST "$base/v1/elections" \
    -d "{\"seed\":7,\"points\":[{\"graph\":\"k32\",\"trials\":6,\"algorithm\":\"$1\"}]}"
}
for alg in floodmax kpprt; do
  resp="$(submit_algo "$alg")" || fail "$alg submission"
  status="$(wait_done "$(json_field "$resp" id)")"
  echo "$status" | tr -d ' \n' | grep -q '"unique_leader":true' \
    || fail "$alg: no unique leader: $status"
  echo "$status" | tr -d ' \n' | grep -q "\"algorithm\":\"$alg\"" \
    || fail "$alg: result does not echo the backend: $status"
  echo "smoke: $alg elected a unique leader in all 6 trials"
done

echo "smoke: a faulty job (floodmax under delays) traces per round, not per send"
trace_events() {
  curl -fsS "$base/metrics" | grep '^electd_trace_events_total ' | awk '{print $2}'
}
events_before="$(trace_events)"
[ -n "$events_before" ] || fail "no electd_trace_events_total in /metrics"
resp="$(curl -fsS -X POST "$base/v1/elections" \
  -d '{"seed":7,"points":[{"graph":"k32","trials":6,"algorithm":"floodmax","fault":{"delay_max":2}}]}')" \
  || fail "faulty submission"
status="$(wait_done "$(json_field "$resp" id)")"
echo "$status" | tr -d ' \n' | grep -q '"one":6' \
  || fail "faulty job: expected 6/6 single-leader trials: $status"
rounds="$(json_field "$status" rounds)"
[ -n "$rounds" ] && [ "$rounds" -gt 0 ] || fail "faulty job: no round total in $status"
events=$(( $(trace_events) - events_before ))
[ "$events" -le $(( 5 * rounds )) ] \
  || fail "faulty job: $events trace events over $rounds rounds (want at most 5 per round)"
echo "smoke: faulty job elected a unique leader in all 6 trials ($events trace events over $rounds rounds)"

echo "smoke: unknown algorithms are rejected at submission"
code="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$base/v1/elections" \
  -d '{"seed":1,"points":[{"graph":"k32","trials":1,"algorithm":"paxos"}]}')"
[ "$code" = "400" ] || fail "unknown algorithm got HTTP $code, want 400"

metrics="$(curl -fsS "$base/metrics")"
for alg in gilbertrs18 floodmax kpprt; do
  echo "$metrics" | grep -q "^electd_elections_by_algorithm_total{algorithm=\"$alg\"}" \
    || fail "no per-backend counter for $alg: $(echo "$metrics" | grep electd_elections)"
done
echo "smoke: per-backend election counters present"

# The cluster wire counters are always exported (zero off-cluster), so
# dashboards can rely on their presence; electd ran in-process here.
for counter in electd_cluster_wire_frames_total electd_cluster_wire_bytes_total \
  electd_cluster_envelopes_total electd_cluster_barriers_total \
  electd_cluster_compressed_frames_total \
  electd_cluster_raw_bytes_total electd_cluster_compressed_bytes_total; do
  echo "$metrics" | grep -q "^$counter " \
    || fail "missing cluster wire counter $counter: $(echo "$metrics" | grep electd_cluster)"
done
echo "smoke: cluster wire counters exported"

echo "smoke: graceful SIGTERM shutdown"
kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  fail "daemon still alive after SIGTERM"
fi
wait "$pid" || fail "daemon exited non-zero"
grep -q "drained, bye" "$logfile" || fail "no graceful-drain log line"
pid=""

echo "smoke: PASS"

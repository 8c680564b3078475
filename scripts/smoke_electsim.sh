#!/usr/bin/env bash
# End-to-end smoke of cmd/electsim, as run by the CI test job: build it,
# run one small election for every registered election backend (the list
# comes from electsim's own unknown-backend error, so a new backend is
# picked up without editing this script), then the paper-only modes
# (-explicit, -phases), the generic protocol path (-protocol bfstree) and a
# Byzantine plane (-byz 0.15). Any non-zero exit fails the smoke, and so
# does a Byzantine run whose metrics line and faults: line disagree on the
# lost or mutated count (the first comes from the run's metrics, the second
# from the fault events it reported). Last, an -n far beyond the graph
# cap must fail fast with a range error and exit status 1. Needs only
# bash, sed, tr, grep and timeout.
set -euo pipefail

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
bin="$workdir/electsim"

echo "smoke: building electsim"
go build -o "$bin" ./cmd/electsim

# electsim rejects an unknown backend by listing the registered ones.
backends="$("$bin" -algo '?' 2>&1 | sed -n 's/.*registered backends: //p' | tr -d ',' || true)"
if [ -z "$backends" ]; then
  echo "smoke: FAIL: electsim listed no registered backends" >&2
  exit 1
fi

run() {
  echo "smoke: electsim $*"
  "$bin" "$@" || { echo "smoke: FAIL: electsim $* exited $?" >&2; exit 1; }
}

# run_faults runs electsim under a fault plane and checks that the lost=
# and mutated= counts on its metrics line equal those on its faults: line.
run_faults() {
  echo "smoke: electsim $*"
  local out metrics faults key m f
  out="$("$bin" "$@")" || { echo "smoke: FAIL: electsim $* exited $?" >&2; exit 1; }
  printf '%s\n' "$out"
  metrics=" $(printf '%s\n' "$out" | sed -n '/^faults:/d; / lost=/p')"
  faults=" $(printf '%s\n' "$out" | sed -n 's/^faults: //p')"
  for key in lost mutated; do
    m="$(printf '%s\n' "$metrics" | sed -n "s/.* $key=\([0-9][0-9]*\).*/\1/p")"
    f="$(printf '%s\n' "$faults" | sed -n "s/.* $key=\([0-9][0-9]*\).*/\1/p")"
    if [ -z "$m" ] || [ -z "$f" ] || [ "$m" != "$f" ]; then
      echo "smoke: FAIL: electsim $*: metrics line says $key=${m:-?}, faults line $key=${f:-?}" >&2
      exit 1
    fi
  done
}

for a in $backends; do
  run -graph clique -n 32 -seed 3 -algo "$a"
done
run -graph clique -n 32 -seed 3 -explicit
run -graph rr -n 64 -seed 3 -phases
run -graph rr -n 64 -seed 3 -protocol bfstree
run_faults -graph rr -n 64 -seed 3 -byz 0.15
run_faults -graph rr -n 64 -seed 3 -algo floodmax -byz 0.15

# -n is bounded before the hypercube rounding, whose loop would never end
# at this size; timeout's 124 would mean it hung.
echo "smoke: electsim -graph hypercube -n 9223372036854775807 (must fail)"
status=0
timeout 10 "$bin" -graph hypercube -n 9223372036854775807 2> "$workdir/range.err" || status=$?
cat "$workdir/range.err"
if [ "$status" -ne 1 ] || ! grep -q "out of range" "$workdir/range.err"; then
  echo "smoke: FAIL: electsim with a huge -n exited $status, want 1 with a range error" >&2
  exit 1
fi
echo "smoke: OK"

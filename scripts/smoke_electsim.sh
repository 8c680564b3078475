#!/usr/bin/env bash
# End-to-end smoke of cmd/electsim, as run by the CI test job: build it,
# run one small election for every registered election backend (the list
# comes from electsim's own unknown-backend error, so a new backend is
# picked up without editing this script), then the paper-only modes
# (-explicit, -phases), the generic protocol path (-protocol bfstree) and a
# Byzantine plane (-byz 0.15). Any non-zero exit fails the smoke.
# Needs only bash, sed and tr.
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

for a in $backends; do
  run -graph clique -n 32 -seed 3 -algo "$a"
done
run -graph clique -n 32 -seed 3 -explicit
run -graph rr -n 64 -seed 3 -phases
run -graph rr -n 64 -seed 3 -protocol bfstree
run -graph rr -n 64 -seed 3 -byz 0.15
run -graph rr -n 64 -seed 3 -algo floodmax -byz 0.15
echo "smoke: OK"

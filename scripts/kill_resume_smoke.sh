#!/usr/bin/env bash
# Kill-and-resume smoke test, run by CI on every push.
#
# Exercises the resilience surface end to end, outside the Go test
# harness (real binaries, real signals, real files):
#
#   1. gtscsim: a single run is interrupted (-timeout) and must exit 3,
#      reporting the cycle it stopped at. A single run is not resumed;
#      it is rerun.
#   2. gtscbench: a sweep with a journal is killed by SIGTERM, must
#      exit 3; rerunning with the same journal must replay the
#      completed simulations, finish the rest, and print the same
#      table as an uninterrupted reference sweep.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/gtscsim" ./cmd/gtscsim
go build -o "$workdir/gtscbench" ./cmd/gtscbench

fail() { echo "kill_resume_smoke: FAIL: $*" >&2; exit 1; }

echo "== gtscsim: interrupt =="
set +e
"$workdir/gtscsim" -workload CC -scale 64 -timeout 400ms >"$workdir/sim_interrupted.out" 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || fail "interrupted gtscsim exited $rc, want 3 (output: $(cat "$workdir/sim_interrupted.out"))"
grep -q "interrupted at cycle" "$workdir/sim_interrupted.out" \
  || fail "interrupted gtscsim did not report its stop cycle (output: $(cat "$workdir/sim_interrupted.out"))"
echo "   OK: exit 3 on interrupt, stop cycle reported"

echo "== gtscbench: SIGTERM mid-sweep, journal resume =="
bench_flags=(-exp table2 -scale 4 -sms 8 -banks 4 -j 4)

set +e
"$workdir/gtscbench" "${bench_flags[@]}" -journal "$workdir/sweep.jrnl" \
  >"$workdir/bench_interrupted.out" 2>&1 &
bench_pid=$!
sleep 0.8
kill -TERM "$bench_pid" 2>/dev/null
wait "$bench_pid"
rc=$?
set -e
[ "$rc" -eq 3 ] || fail "interrupted gtscbench exited $rc, want 3 (output: $(cat "$workdir/bench_interrupted.out"))"
[ -f "$workdir/sweep.jrnl" ] || fail "no journal written"

"$workdir/gtscbench" "${bench_flags[@]}" -journal "$workdir/sweep.jrnl" \
  >"$workdir/bench_resumed.out" 2>&1 || fail "journal resume failed: $(cat "$workdir/bench_resumed.out")"
grep -q "^journal: replayed " "$workdir/bench_resumed.out" || fail "resume did not replay journaled runs"

"$workdir/gtscbench" "${bench_flags[@]}" >"$workdir/bench_reference.out" 2>&1
grep -v "^journal: " "$workdir/bench_resumed.out" >"$workdir/bench_resumed_table.out"
diff -u "$workdir/bench_reference.out" "$workdir/bench_resumed_table.out" \
  || fail "resumed sweep differs from uninterrupted reference"
echo "   OK: exit 3 on SIGTERM, journal replayed, bit-identical table"

echo "kill_resume_smoke: PASS"

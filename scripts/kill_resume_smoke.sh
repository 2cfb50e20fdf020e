#!/usr/bin/env bash
# Kill-and-resume smoke test, run by CI on every push.
#
# Exercises the resilience surface end to end, outside the Go test
# harness (real binaries, real signals, real files):
#
#   1. gtscsim: a single run is interrupted (-timeout), must exit 3
#      and write a checkpoint; -resume must complete it with output
#      bit-identical to an uninterrupted reference run. This runs on
#      the exact engine, under -slack 32, where the interrupt lands on
#      an epoch barrier, and under -check, whose resumed run must print
#      the reference run's checker verdict. A checkpointed run must
#      also write its -memprofile.
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

# sim_smoke NAME TIMEOUT FLAGS...: interrupt a gtscsim run after
# TIMEOUT, resume it from its checkpoint, and diff its stats against an
# uninterrupted run with the same flags.
sim_smoke() {
  local name=$1 timeout=$2
  shift 2
  local ckpt="$workdir/$name.ckpt" out="$workdir/sim_$name"

  set +e
  "$workdir/gtscsim" "$@" -checkpoint "$ckpt" -timeout "$timeout" >"$out.interrupted" 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 3 ] || fail "$name: interrupted gtscsim exited $rc, want 3 (output: $(cat "$out.interrupted"))"
  [ -f "$ckpt" ] || fail "$name: no checkpoint written on interrupt"

  "$workdir/gtscsim" "$@" -checkpoint "$ckpt" -resume >"$out.resumed" 2>&1 \
    || fail "$name: resume failed: $(cat "$out.resumed")"
  grep -q "replay digest verified" "$out.resumed" || fail "$name: resume did not verify the replay digest"
  [ ! -f "$ckpt" ] || fail "$name: checkpoint not cleaned up after completion"

  "$workdir/gtscsim" "$@" >"$out.reference" 2>&1
  # Drop the resume banner and the engine scheduling counters (a resumed
  # run legitimately splits a cycle-skip window at the pause cycle);
  # everything else (all stats) must match the uninterrupted run exactly.
  grep -v "^resumed \|^engine: " "$out.resumed" >"$out.resumed_stats"
  grep -v "^engine: " "$out.reference" >"$out.reference_stats"
  diff -u "$out.reference_stats" "$out.resumed_stats" \
    || fail "$name: resumed run differs from uninterrupted reference"
  echo "   OK: exit 3 on interrupt, verified resume, bit-identical stats"
}

echo "== gtscsim: interrupt, checkpoint, resume =="
sim_smoke exact 400ms -workload CC -scale 64

# Under relaxed sync the interrupt takes effect at the next epoch
# barrier; the run takes several seconds, so one second lands it
# mid-run.
echo "== gtscsim -slack 32: interrupt at an epoch barrier, checkpoint, resume =="
sim_smoke relaxed 1s -workload CC -scale 64 -slack 32

# A checkpointed run is an ordinary run: the checker records the
# replay's operations too, so the resumed run's checker: lines match
# the uninterrupted run's, and -memprofile writes its profile.
echo "== gtscsim -check -memprofile: checkpointed runs keep every flag =="
sim_smoke check 400ms -workload CC -scale 16 -check
"$workdir/gtscsim" -workload CC -checkpoint "$workdir/mem.ckpt" -memprofile "$workdir/mem.pprof" >/dev/null \
  || fail "memprofile: checkpointed run failed"
[ -s "$workdir/mem.pprof" ] || fail "memprofile: no heap profile written under -checkpoint"
echo "   OK: -memprofile written under -checkpoint"

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

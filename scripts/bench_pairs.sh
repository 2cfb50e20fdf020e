#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a base
# revision, as "Comparing two commits" in benchmark/README.md asks:
#
#   bash scripts/bench_pairs.sh --base HEAD --workload fig12 --pairs 10 --seed 23 --seconds 20 [--layers]
#
# The base revision is extracted into a temporary directory (git
# archive) and the working tree's benchmark/ is copied over it, so both
# sides are measured by the same benchmark code. Pairs alternate which
# side runs first. Every run must report correct with no failed
# simulation. For each end-to-end metric (all lower-is-better, see
# BENCHMARK.json) the script prints each side's median and quartiles,
# the change/base ratio of the medians, and in how many pairs the change
# read better (ties count for neither side).
#
# --layers then runs one traced run (--trace 1) per side and prints
# every per-layer metric of both side by side with their ratio: where
# a saving appeared. The simulated machine must be the same on both
# sides, so the script fails if any model.* metric differs.
#
# Raw results stay in the printed directory (mktemp -d, so under
# $TMPDIR when it is set). Nothing is written under benchmark/.
set -euo pipefail

base=HEAD workload=fig12 pairs=10 seed=1 seconds=20 layers=0
usage="usage: $0 [--base REV] [--workload NAME] [--pairs N] [--seed S] [--seconds S] [--layers]"
while [ $# -gt 0 ]; do
  case $1 in
    --layers) layers=1; shift; continue ;;
    --base) base=$2 ;;
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
  [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
  shift 2
done

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=$(mktemp -d)
wt="$out/base"
mkdir "$wt"
trap 'rm -rf "$wt"' EXIT
git archive "$base" | tar -x -C "$wt"
rm -rf "$wt/benchmark"
cp -R benchmark "$wt/benchmark"

fail() { echo "bench_pairs: FAIL: $*" >&2; exit 1; }

# measure SIDE DIR PAIR [TRACE]: one benchmark run of the checkout in
# DIR; its last stdout line is the result object.
measure() {
  local side=$1 dir=$2 i=$3 res="$out/$1-$3.json"
  (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "${4:-0}") 2>"$out/$side-$i.log" | tail -n 1 >"$res"
  grep -q '"correct":true' "$res" || fail "$side run $i not correct: $(cat "$res")"
  grep -q '"failed":0,' "$res" || fail "$side run $i failed simulations: $(cat "$res")"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    measure base "$wt" "$i"
    measure change "$root" "$i"
  else
    measure change "$root" "$i"
    measure base "$wt" "$i"
  fi
  echo "pair $i/$pairs done" >&2
done

# value SIDE PAIR METRIC
value() {
  sed -n "s/.*\"$3\":{\"value\":\([^,}]*\).*/\1/p" "$out/$1-$2.json"
}

echo "$workload, seed $seed, $seconds s runs, $pairs pairs, base $(git rev-parse --short "$base"); results in $out"
printf '%-22s %-30s %-30s %12s %6s\n' metric "base median [q1 q3]" "change median [q1 q3]" change/base wins
for m in setup_s cpu_s cpu_ns_per_cycle.p50 cpu_ns_per_cycle.p90 alloc_mb peak_heap_mb; do
  for i in $(seq 1 "$pairs"); do
    echo "$(value base "$i" "$m") $(value change "$i" "$m")"
  done | awk -v m="$m" '
    # q returns quantile p of the n sorted values in v (linear
    # interpolation between closest ranks).
    function q(v, n, p,   h, k) {
      h = (n - 1) * p + 1; k = int(h)
      return k >= n ? v[n] : v[k] + (h - k) * (v[k + 1] - v[k])
    }
    function isort(v, n,   i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    { n++; b[n] = $1; c[n] = $2; if ($2 < $1) wins++ }
    END {
      isort(b, n); isort(c, n)
      bm = q(b, n, 0.5); cm = q(c, n, 0.5)
      printf "%-22s %-30s %-30s %12.4f %3d/%d\n", m,
        sprintf("%.6g [%.6g %.6g]", bm, q(b, n, 0.25), q(b, n, 0.75)),
        sprintf("%.6g [%.6g %.6g]", cm, q(c, n, 0.25), q(c, n, 0.75)),
        (bm > 0 ? cm / bm : 0), wins, n
    }'
done

[ "$layers" = 1 ] || exit 0
measure base "$wt" trace 1
measure change "$root" trace 1

# metrics SIDE: "name value" for every metric of SIDE's traced run,
# sorted by name.
metrics() {
  grep -o '"[a-z0-9_.]*":{"value":[^,}]*' "$out/$1-trace.json" |
    sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' | LC_ALL=C sort
}

echo
echo "$workload, seed $seed, one traced run per side"
printf '%-32s %16s %16s %12s\n' metric base change change/base
LC_ALL=C join -a 1 -a 2 -e - -o 0,1.2,2.2 <(metrics base) <(metrics change) | awk '
  function f(v) { return v == "-" ? v : sprintf("%.6g", v) }
  {
    r = ($2 != "-" && $3 != "-" && $2 + 0 != 0) ? sprintf("%.4f", $3 / $2) : "-"
    printf "%-32s %16s %16s %12s\n", $1, f($2), f($3), r
    if ($1 ~ /^model\./ && $2 != $3) { moved = moved " " $1 }
  }
  END {
    if (moved != "") { print "bench_pairs: FAIL: the simulated machine moved:" moved > "/dev/stderr"; exit 1 }
  }'

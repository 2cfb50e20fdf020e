#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a base
# revision, as "Comparing two commits" in benchmark/README.md asks:
#
#   bash scripts/bench_pairs.sh --base HEAD --workload fig12 --pairs 10 --seed 23 --seconds 20
#
# The base is checked out in a temporary git worktree and the working
# tree's benchmark/ is copied over it, so both sides are measured by
# the same benchmark code. Pairs alternate which side runs first. Every
# run must report correct with no failed simulation. For each
# end-to-end metric (all lower-is-better, see BENCHMARK.json) the
# script prints each side's median and quartiles, the change/base
# ratio of the medians, and in how many pairs the change read better
# (ties count for neither side). Raw results stay in the printed
# directory. Nothing is written under benchmark/.
set -euo pipefail

base=HEAD workload=fig12 pairs=10 seed=1 seconds=20
while [ $# -gt 0 ]; do
  case $1 in
    --base) base=$2 ;;
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "usage: $0 [--base REV] [--workload NAME] [--pairs N] [--seed S] [--seconds S]" >&2; exit 2 ;;
  esac
  shift 2
done

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=$(mktemp -d)
wt="$out/base"
git worktree add --quiet --detach "$wt" "$base"
trap 'git -C "$root" worktree remove --force "$wt"' EXIT
rm -rf "$wt/benchmark"
cp -R benchmark "$wt/benchmark"

fail() { echo "bench_pairs: FAIL: $*" >&2; exit 1; }

# measure SIDE DIR PAIR: one benchmark run of the checkout in DIR; its
# last stdout line is the result object.
measure() {
  local side=$1 dir=$2 i=$3 res="$out/$1-$3.json"
  (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) 2>"$out/$side-$i.log" | tail -n 1 >"$res"
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

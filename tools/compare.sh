#!/bin/sh
# The pairs protocol as one command: runs the benchmark of a base commit
# and of this work tree in alternating pairs and prints one JSON.
#
#   sh tools/compare.sh BASE [--workload W[,W...]] [--seeds N[,N...]] \
#     [--pairs N] [--seconds S]
#
# BASE is any commit git can name (a hash, HEAD, a tag).  Its tree is
# extracted with `git archive` into a fresh `mktemp -d` directory (no
# worktree, no network) and removed at exit.  Each side's sb_bench.exe
# is built and run through that side's own benchmark/run.sh, so each
# side is measured by its own harness.  For every workload and seed,
# N pairs run the two sides back to back, the order alternating from
# pair to pair.  Then one traced run per side (--trace 1, the first
# seed) gives that side's `counts:` line.
#
# Defaults: --workload adhoc,oltp,analytic --seeds 42 --pairs 10
# --seconds 30.  Progress goes to stderr; stdout is one JSON object:
#
#   {"base": REV, "seeds": [...], "pairs": N, "seconds": S,
#    "workloads": {W: {
#      "metrics": {M: {"better": "higher"|"lower",
#                      "base": {"median", "q1", "q3", "runs": [...]},
#                      "work": {...}, "wins": K, "of": N}},
#      "incorrect": {"base": R, "work": R},
#      "counts": {"base": LINE, "work": LINE, "identical": BOOL}}}}
#
# M ranges over BENCHMARK.json's end-to-end metrics; "wins" counts the
# pairs in which the work tree's value is better than its partner's.
# Quartiles interpolate linearly between the sorted runs.  Exit status:
# 0 when every run is correct and every workload's two `counts:` lines
# are identical, 1 otherwise, 2 on a usage error.  Needs git, jq and
# the OCaml toolchain that benchmark/run.sh uses.
set -eu

usage() {
  echo "usage: sh tools/compare.sh BASE [--workload W[,W...]] [--seeds N[,N...]] [--pairs N] [--seconds S]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
base=$1
shift
workloads=adhoc,oltp,analytic
seeds=42
pairs=10
seconds=30
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workloads=$2 ;;
    --seeds) seeds=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
  esac
  shift 2
done
workloads=$(echo "$workloads" | tr , ' ')
seeds=$(echo "$seeds" | tr , ' ')

root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") || usage
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base" "$tmp/runs"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# run SIDE OUT ARGS...: one sb_bench run of SIDE (base or work) through
# its own run.sh, its stdout into OUT
run() {
  side=$1 out=$2
  shift 2
  if [ "$side" = base ]; then dir=$tmp/base; else dir=$root; fi
  echo "compare: $side $*" >&2
  if ! (cd "$dir" && bash benchmark/run.sh "$@" >"$out" 2>"$tmp/stderr"); then
    tail -n 20 "$tmp/stderr" >&2
    echo "compare: the $side run failed" >&2
    exit 1
  fi
}

for w in $workloads; do
  for seed in $seeds; do
    i=1
    while [ "$i" -le "$pairs" ]; do
      if [ $((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi
      for side in $order; do
        run "$side" "$tmp/out" --workload "$w" --seed "$seed" --seconds "$seconds"
        tail -n 1 "$tmp/out" >>"$tmp/runs/$w.$side"
      done
      i=$((i + 1))
    done
  done
  for side in base work; do
    run "$side" "$tmp/out" --workload "$w" --seed "${seeds%% *}" --seconds "$seconds" \
      --trace 1 --trace-out "$tmp/trace.json"
    grep '^counts:' "$tmp/out" >"$tmp/runs/$w.counts.$side" || true
  done
done

status=0
out=$(jq -n --arg rev "$rev" --arg seeds "$seeds" --argjson pairs "$pairs" \
  --argjson seconds "$seconds" \
  '{base: $rev, seeds: ($seeds | split(" ") | map(tonumber)), pairs: $pairs,
    seconds: $seconds, workloads: {}}')
for w in $workloads; do
  # the runs of one side are its result lines in pair order, so the
  # k-th of each side form pair k
  section=$(jq -n \
    --slurpfile spec "$root/BENCHMARK.json" \
    --slurpfile b "$tmp/runs/$w.base" --slurpfile x "$tmp/runs/$w.work" \
    --rawfile cb "$tmp/runs/$w.counts.base" --rawfile cx "$tmp/runs/$w.counts.work" '
def quant(p): sort as $s | ($s | length) as $n | (p * ($n - 1)) as $r | ($r | floor) as $i
  | if $i + 1 < $n then $s[$i] + ($r - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
def summary: {median: quant(0.5), q1: quant(0.25), q3: quant(0.75), runs: .};
($cb | rtrimstr("\n")) as $cb | ($cx | rtrimstr("\n")) as $cx
| {metrics: ($spec[0].end_to_end | map(
      . as $m
      | ($b | map(.metrics[$m.name].value)) as $bv
      | ($x | map(.metrics[$m.name].value)) as $xv
      | {key: $m.name,
         value: {better: $m.better, base: ($bv | summary), work: ($xv | summary),
                 wins: ([range(0; $xv | length)]
                        | map(select(if $m.better == "higher" then $xv[.] > $bv[.]
                                     else $xv[.] < $bv[.] end))
                        | length),
                 of: ($xv | length)}}) | from_entries),
   incorrect: {base: ($b | map(select(.correct != true)) | length),
               work: ($x | map(select(.correct != true)) | length)},
   counts: {base: $cb, work: $cx, identical: ($cb == $cx and $cb != "")}}')
  if ! echo "$section" | jq -e '.counts.identical and .incorrect.base == 0 and .incorrect.work == 0' >/dev/null; then
    status=1
    echo "compare: $w: a run was incorrect or the counts: lines differ" >&2
    diff "$tmp/runs/$w.counts.base" "$tmp/runs/$w.counts.work" >&2 || true
  fi
  out=$(echo "$out" | jq --arg w "$w" --argjson s "$section" '.workloads[$w] = $s')
done
echo "$out"
exit "$status"

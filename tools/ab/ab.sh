#!/bin/sh
# Paired parent/change runs of the end-to-end benchmark.
#
#   sh tools/ab/ab.sh [--parent REV] [--rounds N] [--seconds S]
#                     [--seed0 N] [--out FILE] WORKLOAD...
#
# Exports the parent (default HEAD) and the change (the working tree:
# tracked and untracked files that git does not ignore) into two
# fresh trees under a temporary directory, builds each in its own tree,
# then runs N rounds (default 10). Round r runs, on both sides,
#
#   sh bench/e2e/run.sh --workload W --seconds S --seed SEED0+r --trace 0
#
# for every WORKLOAD, the parent first in odd rounds and the change
# first in even ones, and keeps each run's last stdout line in FILE
# (default ab-results.txt) as "SIDE WORKLOAD ROUND RESULT"; a run that
# printed no result object leaves RESULT empty, which the comparator
# reports as incorrect. Then it
# prints the comparator's verdict table (tools/ab/ab_compare.ml) and
# removes the trees. To compare two commits, check out the later one. Run from the root of the repository; nothing else
# may run on the machine meanwhile.
#
# The trees are plain exports (git archive / tar), not git worktrees,
# so a run writes nothing into .git and an interrupted one leaves
# nothing registered there to prune.
set -eu

parent=HEAD
rounds=10
seconds=20
seed0=1000
out=ab-results.txt
workloads=

usage() {
  echo "usage: sh tools/ab/ab.sh [--parent REV] [--rounds N] [--seconds S] [--seed0 N] [--out FILE] WORKLOAD..." >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --parent) [ $# -ge 2 ] || usage; parent=$2; shift 2 ;;
    --rounds) [ $# -ge 2 ] || usage; rounds=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --seed0) [ $# -ge 2 ] || usage; seed0=$2; shift 2 ;;
    --out) [ $# -ge 2 ] || usage; out=$2; shift 2 ;;
    -*) usage ;;
    *) workloads="$workloads $1"; shift ;;
  esac
done
[ -n "$workloads" ] || usage
[ -f bench/e2e/run.sh ] || { echo "ab.sh: run from the repository root" >&2; exit 2; }

root=$PWD
work=$(mktemp -d "${TMPDIR:-/tmp}/riommu-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

export_rev() { # REV DIR
  mkdir -p "$2"
  git -C "$root" archive "$1" | tar -x -C "$2"
}

export_worktree() { # DIR
  mkdir -p "$1"
  (cd "$root" && git ls-files -co --exclude-standard -z | tar --null -T - -cf -) \
    | tar -x -C "$1"
}

dune build --root "$root" ./tools/ab/ab_compare.exe >&2
compare=$root/_build/default/tools/ab/ab_compare.exe

export_rev "$parent" "$work/parent"
export_worktree "$work/change"

for side in parent change; do
  echo "ab.sh: building $side" >&2
  (cd "$work/$side" && DUNE_CACHE=disabled dune build --root . @install bench/e2e/riommu_e2e.exe >&2)
done

: > "$out"
run_side() { # SIDE WORKLOAD ROUND SEED
  line=$(cd "$work/$1" && sh bench/e2e/run.sh --workload "$2" --seconds "$seconds" --seed "$4" --trace 0 2>/dev/null | tail -n 1) || true
  case "$line" in *"{"*) ;; *) line= ;; esac
  echo "$1 $2 $3 $line" >> "$out"
}

r=1
while [ "$r" -le "$rounds" ]; do
  seed=$((seed0 + r))
  for w in $workloads; do
    echo "ab.sh: round $r/$rounds $w (seed $seed)" >&2
    if [ $((r % 2)) -eq 1 ]; then
      run_side parent "$w" "$r" "$seed"; run_side change "$w" "$r" "$seed"
    else
      run_side change "$w" "$r" "$seed"; run_side parent "$w" "$r" "$seed"
    fi
  done
  r=$((r + 1))
done

"$compare" --benchmark "$root/BENCHMARK.json" "$out"

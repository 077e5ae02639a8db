#!/usr/bin/env bash
# Paired A/B benchmark of the working tree against a parent revision.
#
#   scripts/perf_ab.sh <parent-rev> <workloads> <pairs> <seconds> <seed-base>
#
# <workloads> is one workload, a comma-separated list (query_mix,rack_sweep)
# or `all` for every workload in BENCHMARK.json.
#
# Exports <parent-rev> and the working tree (tracked and untracked files
# that git does not ignore, uncommitted edits included) into a temporary
# directory, and builds each side's perfbench once per call, with its own
# target directory outside perfbench/. Then, for each workload in turn, it
# runs <pairs> pairs of untraced runs of <seconds> each: pair k runs both
# sides on the fresh seed <seed-base>+k, and the side that runs first
# alternates from pair to pair, so a slow phase of the host lands on both
# sides alike.
#
# Prints every run's end-to-end metrics as it goes, then, per workload and
# for each end-to-end metric in BENCHMARK.json, each side's median
# [q1, q3], the median of the per-pair ratios change/parent, and the
# number of pairs the change won (by the metric's "better" direction; ties
# count for neither side). Needs git, cargo, jq and awk.
set -euo pipefail

if [ "$#" -ne 5 ]; then
  echo "usage: $0 <parent-rev> <workload[,workload...]|all> <pairs> <seconds> <seed-base>" >&2
  exit 2
fi
rev=$1 workloads=$2 pairs=$3 seconds=$4 seed_base=$5
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --quiet --verify "${rev}^{commit}" > /dev/null \
  || { echo "unknown revision: $rev" >&2; exit 2; }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
  | while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done \
  | tar --null -T - -cf -) | tar -x -C "$tmp/change"

# "name better" per end-to-end metric, from the change's BENCHMARK.json.
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$tmp/change/BENCHMARK.json")
known=$(jq -r '.workloads[].name' "$tmp/change/BENCHMARK.json")
if [ "$workloads" = all ]; then
  workloads=$(paste -sd, <<< "$known")
fi
IFS=, read -r -a workload_list <<< "$workloads"
for workload in "${workload_list[@]}"; do
  grep -qxF -- "$workload" <<< "$known" || { echo "unknown workload: $workload" >&2; exit 2; }
done

for side in parent change; do
  echo "building $side perfbench ..." >&2
  CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --quiet --offline \
    --manifest-path "$tmp/$side/perfbench/Cargo.toml"
done

# Runs one side of $workload on one seed; appends "<pair> <metric>
# <value>" lines to $tmp/<side>-<workload>.tsv and echoes the run's
# metrics.
run() {
  local side=$1 pair=$2 seed=$3 out line
  out=$(cd "$tmp/$side" && "$tmp/target-$side/release/perfbench" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
  line=$(printf '%s\n' "$out" | tail -n 1)
  if [ "$(jq -r '.correct' <<< "$line")" != true ]; then
    echo "$side run on seed $seed reported incorrect output" >&2
    exit 1
  fi
  printf '%-6s pair %2d seed %d failed %s' "$side" "$pair" "$seed" "$(jq -r '.failed' <<< "$line")"
  while read -r name _; do
    value=$(jq -r --arg m "$name" '.metrics[$m].value' <<< "$line")
    echo "$pair $name $value" >> "$tmp/$side-$workload.tsv"
    printf '  %s %s' "$name" "$value"
  done <<< "$metrics"
  echo
}

# median [q1, q3] of stdin, one number a line (linear interpolation).
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,  h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END { if (NR == 0) exit 1; v[NR + 1] = v[NR]; printf "%.6g [%.6g, %.6g]", q(0.5), q(0.25), q(0.75) }'
}

for workload in "${workload_list[@]}"; do
  for ((k = 0; k < pairs; k++)); do
    seed=$((seed_base + k))
    if ((k % 2 == 0)); then order='parent change'; else order='change parent'; fi
    for side in $order; do run "$side" "$k" "$seed"; done
  done

  echo
  echo "workload $workload, $pairs pairs of ${seconds} s, seeds $seed_base..$((seed_base + pairs - 1)), parent $rev"
  printf '%-16s %-34s %-34s %-12s %s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' 'ratio c/p' 'change wins'
  while read -r name better; do
    p=$(awk -v m="$name" '$2 == m { print $3 }' "$tmp/parent-$workload.tsv" | quartiles)
    c=$(awk -v m="$name" '$2 == m { print $3 }' "$tmp/change-$workload.tsv" | quartiles)
    # "<parent> <change>" per pair
    paired=$(join <(awk -v m="$name" '$2 == m { print $1, $3 }' "$tmp/parent-$workload.tsv" | sort -k1,1) \
      <(awk -v m="$name" '$2 == m { print $1, $3 }' "$tmp/change-$workload.tsv" | sort -k1,1) | cut -d' ' -f2-)
    ratio=$(awk '{ print ($1 != 0) ? $2 / $1 : 0 }' <<< "$paired" | quartiles | cut -d' ' -f1)
    wins=$(awk -v better="$better" '
      (better == "higher" && $2 > $1) || (better == "lower" && $2 < $1) { w++ }
      END { printf "%d/%d", w, NR }' <<< "$paired")
    printf '%-16s %-34s %-34s %-12s %s (%s is better)\n' "$name" "$p" "$c" "$ratio" "$wins" "$better"
  done <<< "$metrics"
done

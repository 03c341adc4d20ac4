#!/usr/bin/env bash
# PC-sample profile of one benchmark workload, summed over seeds.
#
#   scripts/pc_profile.sh <workload> [seed ...]     (default seeds: 1 2 3)
#
# Configures build-pg/ from benchmark/CMakeLists.txt with the benchmark's
# own flags (-O2 -DNDEBUG) and only the *link* step given -pg. gprof then
# gets a PC-sample histogram of the whole process without call counting,
# so no mcount call distorts small functions. The link is also -static:
# gprof samples only the executable's own text, so a dynamic link would
# drop the time spent in libstdc++ and libc (std::map's
# _Rb_tree_increment, malloc, libgcc's __popcountdi2). Runs opera_perf
# once per seed, each in its own temporary directory (each writes a
# gmon.out), sums the runs with `gprof -s` and prints the total sampled
# time and the top of the flat profile.
#
# Environment: TOP (rows printed, default 40), OPERA_PERF_ARGS (extra
# opera_perf flags, e.g. "--smoke" or "--threads=4").
#
# Samples map to symbols by address: read single rows as a hint and the
# sum over a layer's symbols as the measurement (docs/ARCHITECTURE.md).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload> [seed ...]" >&2
  exit 2
fi
workload=$1
shift
seeds=("$@")
[[ ${#seeds[@]} -gt 0 ]] || seeds=(1 2 3)

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/build-pg
top=${TOP:-40}

command -v gprof >/dev/null || { echo "$0: gprof not found" >&2; exit 2; }

if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" >/dev/null
fi
cmake --build "$build" --target opera_perf -j 2 >/dev/null
binary=$build/opera_perf

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
profiles=()
for seed in "${seeds[@]}"; do
  dir=$work/seed$seed
  mkdir -p "$dir"
  # shellcheck disable=SC2086  # OPERA_PERF_ARGS is a list of flags
  (cd "$dir" && "$binary" --workload="$workload" --seed="$seed" \
    ${OPERA_PERF_ARGS:-} >/dev/null)
  profiles+=("$dir/gmon.out")
done

(cd "$work" && gprof -s "$binary" "${profiles[@]}")
gprof -b -p "$binary" "$work/gmon.sum" >"$work/flat.txt"
total=$(awk '$1 ~ /^[0-9.]+$/ && NF >= 4 { s += $3 } END { printf "%.2f", s }' \
  "$work/flat.txt")
echo "# pc_profile: $workload, seeds ${seeds[*]}: ${#seeds[@]} run(s), ${total} s sampled"
head -n $((top + 5)) "$work/flat.txt"

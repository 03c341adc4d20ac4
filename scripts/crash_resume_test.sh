#!/usr/bin/env bash
# End-to-end crash/resume determinism check (docs/CHECKPOINT.md).
#
# For each shard count, runs a quick k=12 Opera sweep three ways:
#   1. uninterrupted, no limits or checkpoints — the reference (every run
#      goes through exp::RunGuard; without guard flags it only watches for
#      signals);
#   2. with --checkpoint-every, SIGKILLed as soon as a checkpoint lands
#      (SIGKILL is unmaskable: this is a real crash, not a graceful exit);
#   3. resumed from the checkpoint the killed run left behind.
# The resumed run's CSV must be bit-identical to the reference after
# strip_wall_fields.py blanks the wall-clock measurements. Finally checks
# the SIGTERM path: graceful exit code 42, checkpoint written, partial
# report flushed.
#
#   scripts/crash_resume_test.sh [build-dir]
#
# Registered as the ctest `crash_resume_sh` (~4 s).
set -euo pipefail

build_dir="${1:-build}"
bench="$build_dir/bench_custom"
strip="$(dirname "$0")/strip_wall_fields.py"
if [[ ! -x "$bench" ]]; then
  echo "error: $bench not found (build first)" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

sweep=(--fabric=opera --racks=12 --hosts-per-rack=4 --workload=permutation
       --flow-kb=20000 --horizon-ms=100 --seed=7 --csv)
failures=0

wait_for_checkpoint() {
  # Poll until the run has written its first checkpoint (tmp+rename makes
  # the appearance atomic), so the SIGKILL lands genuinely mid-run.
  local path="$1" pid="$2"
  for _ in $(seq 1 200); do
    [[ -s "$path" ]] && return 0
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.05
  done
  return 1
}

for threads in 1 4; do
  echo "== crash/resume at --threads=$threads"
  ck="$work/t$threads.ckpt"

  "$bench" "${sweep[@]}" --threads="$threads" \
    > "$work/ref$threads.csv" 2> "$work/ref$threads.err"

  "$bench" "${sweep[@]}" --threads="$threads" \
    --checkpoint-every=5 --checkpoint-to="$ck" \
    > "$work/killed$threads.csv" 2> "$work/killed$threads.err" &
  pid=$!
  if wait_for_checkpoint "$ck" "$pid"; then
    kill -KILL "$pid" 2>/dev/null || true
  fi
  wait "$pid" 2>/dev/null || true
  if [[ ! -s "$ck" ]]; then
    echo "FAIL: no checkpoint written before the run ended (threads=$threads)" >&2
    failures=$((failures + 1))
    continue
  fi

  "$bench" --resume="$ck" --threads="$threads" --csv \
    > "$work/resumed$threads.csv" 2> "$work/resumed$threads.err"
  grep -q "fingerprint .* verified" "$work/resumed$threads.err" || {
    echo "FAIL: resume did not verify the checkpoint fingerprint (threads=$threads)" >&2
    failures=$((failures + 1))
  }

  if diff <(python3 "$strip" "$work/ref$threads.csv") \
          <(python3 "$strip" "$work/resumed$threads.csv"); then
    echo "   resumed CSV bit-identical to uninterrupted reference"
  else
    echo "FAIL: resumed run differs from reference (threads=$threads)" >&2
    failures=$((failures + 1))
  fi
done

echo "== SIGTERM graceful exit"
ck="$work/sigterm.ckpt"
"$bench" "${sweep[@]}" --checkpoint-to="$ck" --checkpoint-every=5 \
  > "$work/sigterm.csv" 2> "$work/sigterm.err" &
pid=$!
wait_for_checkpoint "$ck" "$pid" || true
kill -TERM "$pid" 2>/dev/null || true
rc=0; wait "$pid" || rc=$?
if (( rc != 42 )); then
  echo "FAIL: SIGTERM exit code $rc, expected 42" >&2
  failures=$((failures + 1))
fi
grep -q "PARTIAL RUN" "$work/sigterm.csv" || {
  echo "FAIL: SIGTERM run did not flush a partial report" >&2
  failures=$((failures + 1))
}
[[ -s "$ck" ]] || {
  echo "FAIL: SIGTERM run left no checkpoint" >&2
  failures=$((failures + 1))
}

if (( failures > 0 )); then
  echo "crash_resume_test: $failures failure(s)" >&2
  exit 1
fi
echo "crash_resume_test: all checks passed"

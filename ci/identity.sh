#!/usr/bin/env bash
# Cross-commit identity check: runs the same deterministic artifacts on
# two build trees (typically a change and its parent) and prints one
# verdict per artifact, `identical` or `differs (N diff lines)`.
#
#   ci/identity.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a configured and built tree (cmake -B DIR -S .) whose
# bench/ holds flips_tables, flips_run and bench_deadline_stragglers.
# Artifacts:
#   flips_tables/<preset>   the 12 presets at parties=30 rounds=20
#                           runs=2 seed=7;
#   bench_deadline_stragglers/fault-free   its deadline sweep and its
#                           async-vs-sync table (fault plan off);
#   bench_deadline_stragglers/fault-plan   its fault-plan table and the
#                           `perf,faults` line;
#   flips_run/sync-faults, flips_run/async-faults   flips_run with
#                           churn=1 fault_rate=0.1 in both modes: the
#                           summary table, the --csv accuracy curve and
#                           the --metrics-out round records.
# Host wall-clock is stripped before comparing: `perf,` lines (except
# bench_deadline_stragglers' `perf,async` and `perf,faults`, which are
# computed from simulated time only), `rerun,` lines, flips_run's final
# "wall s/round" column and the metrics records' "phases" durations.
# Exits 0 whether or not artifacts differ; the verdicts are the output.
set -euo pipefail

parent=${1:?usage: ci/identity.sh PARENT_BUILD CHANGE_BUILD}
change=${2:?usage: ci/identity.sh PARENT_BUILD CHANGE_BUILD}

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Drops wall-clock lines and columns from one artifact's output.
strip() {
  sed -E -e '/^rerun,/d' -e '/^perf,(async|faults),/!{/^perf,/d}' \
      -e 's/,"phases":\{[^}]*\}//' "$1" \
    | awk '/wall s\/round/ { wall = 1; print; next }
           /^$/ { wall = 0 }
           wall && $1 ~ /^[0-9>]/ { $NF = ""; print; next }
           { print }'
}

# run NAME CMD... : runs CMD (a path under bench/ plus its flags) on
# both builds. A `@METRICS@` argument becomes a per-build metrics file
# whose records are appended to the output before stripping.
run() {
  local name=$1
  shift
  local side dir out
  for side in parent change; do
    dir=${parent}
    [ "${side}" = change ] && dir=${change}
    out="${work}/${side}/${name}"
    mkdir -p "$(dirname "${out}")"
    local args=() metrics=""
    for a in "$@"; do
      if [ "${a}" = @METRICS@ ]; then
        metrics="${out}.metrics"
        args+=("${metrics}")
      else
        args+=("${a}")
      fi
    done
    args[0]="${dir}/bench/${args[0]}"
    "${args[@]}" > "${out}.raw"
    if [ -n "${metrics}" ]; then cat "${metrics}" >> "${out}.raw"; fi
    strip "${out}.raw" > "${out}"
  done
}

# verdict LABEL NAME [FILTER] : compares the stripped outputs of NAME,
# after an optional awk FILTER program, and prints LABEL's verdict.
verdict() {
  local label=$1 name=$2 filter=${3:-1}
  local n
  n=$(diff <(awk "${filter}" "${work}/parent/${name}") \
           <(awk "${filter}" "${work}/change/${name}") \
        | grep -c -E '^[<>]' || true)
  if [ "${n}" -eq 0 ]; then
    printf '%-44s identical\n' "${label}"
  else
    printf '%-44s differs (%s diff lines)\n' "${label}" "${n}"
  fi
}

for preset in $("${change}/bench/flips_run" --list); do
  run "tables-${preset}" flips_tables --scenario "${preset}" \
      --set parties=30 --set rounds=20 --set runs=2 --set seed=7
  verdict "flips_tables/${preset}" "tables-${preset}"
done

run stragglers bench_deadline_stragglers
verdict bench_deadline_stragglers/fault-free stragglers \
    '/^== fault plan/ { f = 1 } !f'
verdict bench_deadline_stragglers/fault-plan stragglers \
    '/^== fault plan/ { f = 1 } f'

for mode in sync async; do
  run "run-${mode}" flips_run --set churn=1 --set fault_rate=0.1 \
      --set mode="${mode}" --csv --metrics-out @METRICS@
  verdict "flips_run/${mode}-faults" "run-${mode}"
done

#!/usr/bin/env bash
# Smoke runs shared by the sanitizer CI jobs (ASan/UBSan and TSan).
#
#   ci/smoke.sh <build-dir>
#
# 1. bench_micro_selection exercises every selector's select/report
#    path end-to-end (and proves the microbench shim tolerates
#    scenario flags).
# 2. flips_tables --scenario ecg-fedavg (Tables 17-18) at toy scale
#    with threads=4 drives the FL worker pool — selection, concurrent local training, ordered
#    aggregation, evaluation — so TSan sees the real multi-threaded
#    round loop, not a synthetic test.
# 3. bench_scalability at 2k parties with threads=4 drives the
#    control plane's ingestion from four concurrent submitters
#    (seal/open in each submitting thread, then the engine lock that
#    guards every party's point and the membership table, late-joiner
#    assignment, drift observation) — the streaming-service paths
#    TSan must see under real contention.
# 4. the 4-thread codec smokes drive the workers' hand-off of leased
#    update buffers to the stepping thread's ordered fold plus the
#    quant8/topk wire codecs (per-party error feedback,
#    broadcast-delta compression) under ASan and TSan.
# 5. the flips_run scenario smokes drive the declarative --set
#    override parser end-to-end and a 2-session round-robin
#    interleave over one shared 4-worker pool — the multi-tenant
#    scheduling path TSan must see under real contention.
# 6. the mode=async smoke drives the buffered asynchronous plane —
#    eager parallel training at dispatch, the arrival event loop,
#    staleness drops, partial buffer flushes — with 4 workers so
#    ASan sees the arena slot lifecycle and TSan the dispatch-batch
#    parallelism.
# 7. the chaos smokes turn the deterministic fault plan on: a sync
#    run with churn + crashes + a 50% quorum floor (backfill waves,
#    quorum-degraded folds) and a 4-thread async run with churn +
#    crashes (in-place retry redispatch) — the recovery paths ASan
#    and TSan must see under real worker-pool contention.
# 8. the DP smokes run one sync and one async flips_run with
#    privacy=dp and dp_noise=0.5 on 4 workers: the clip inside each
#    worker's dispatch, and the noise calibration both drivers share
#    (sigma from the aggregator's fold weights), under ASan and TSan.
# 9. the UDS serving smoke runs flips_serve + flips_loadgen as real
#    processes: two tenants over a unix socket, frame parsing, the
#    reader/builder/scheduler thread handoff, admission accounting, and
#    graceful drain — the socket plane TSan and ASan must see end to
#    end (the loadgen exits non-zero if served results are not
#    bit-identical to in-process runs). --metrics additionally polls
#    the kMetrics frame before shutdown and exits non-zero when a
#    mandatory telemetry family is missing from the snapshot or the
#    server-side rejection counters disagree with the clients' own
#    kRejected tally.
# 10. the elbow serving smoke re-runs the UDS pair with
#    flips_clusters=0, so each session's DBI elbow runs inside the
#    clustering enclave on the server's builder thread.
# 11. the chaos serving smoke re-runs the UDS pair with --fault: the
#    loadgen kills its connection every few steps (half of them with
#    a request in flight) and recovers via reconnect + idempotent
#    replay; it still exits non-zero unless the served results are
#    bit-identical to in-process runs.
set -euo pipefail

build_dir=${1:?usage: ci/smoke.sh <build-dir>}

"${build_dir}/bench/bench_micro_selection" --parties 8 --rounds 3 \
    --benchmark_min_time=0.01

tables=("${build_dir}/bench/flips_tables" --scenario ecg-fedavg
        --set parties=12 --set samples=24 --set rounds=4 --set runs=1
        --set threads=4)
"${tables[@]}"

"${build_dir}/bench/bench_scalability" --set parties=2000 --set threads=4

"${tables[@]}" --set codec=quant8

"${tables[@]}" --set codec=topk

"${build_dir}/bench/flips_run" --scenario ecg-fedyogi \
    --set parties=12 --set samples=24 --set rounds=4 --set runs=1 \
    --set threads=4 --set codec=quant8

"${build_dir}/bench/flips_run" --set sessions=2 --set parties=12 \
    --set samples=24 --set rounds=4 --set threads=4

"${build_dir}/bench/flips_run" --set mode=async --set buffer_k=2 \
    --set max_staleness=2 --set parties=12 --set samples=24 \
    --set rounds=8 --set runs=1 --set threads=4 --set codec=quant8

"${build_dir}/bench/flips_run" --set parties=12 --set samples=24 \
    --set rounds=4 --set runs=1 --set threads=4 --set churn=1 \
    --set fault_rate=0.1 --set min_quorum=0.5

"${build_dir}/bench/flips_run" --set mode=async --set buffer_k=2 \
    --set parties=12 --set samples=24 --set rounds=8 --set runs=1 \
    --set threads=4 --set churn=1 --set fault_rate=0.1

"${build_dir}/bench/flips_run" --set parties=12 --set samples=24 \
    --set rounds=4 --set runs=1 --set threads=4 --set privacy=dp \
    --set dp_noise=0.5

"${build_dir}/bench/flips_run" --set mode=async --set buffer_k=2 \
    --set parties=12 --set samples=24 --set rounds=8 --set runs=1 \
    --set threads=4 --set privacy=dp --set dp_noise=0.5

# Starts flips_serve on a fresh unix socket (its extra flags come before
# `--`), drives two tenants with flips_loadgen (the flags after `--`)
# and shuts the server down.
serve_smoke() {
  local serve_args=()
  while [ "$1" != "--" ]; do
    serve_args+=("$1")
    shift
  done
  shift
  local sock
  sock="$(mktemp -u /tmp/flips_smoke_XXXXXX.sock)"
  "${build_dir}/bench/flips_serve" --uds "${sock}" --threads 4 \
      "${serve_args[@]}" &
  local pid=$!
  for _ in $(seq 1 100); do
    [ -S "${sock}" ] && break
    sleep 0.1
  done
  "${build_dir}/bench/flips_loadgen" --uds "${sock}" --tenants 2 \
      --set parties=12 --set samples=24 --set rounds=4 --set threads=4 \
      "$@" --shutdown
  wait "${pid}"
}

serve_smoke -- --metrics

serve_smoke -- --set flips_clusters=0

serve_smoke --idle-timeout 30 -- --set churn=1 --set fault_rate=0.1 \
    --fault --fault-every 2

#!/usr/bin/env python3
"""One run of the FLIPS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sync-femnist --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the benchmark program flips_perf and
the flips_serve server from source into .bench_build/ (incrementally),
starts the server for serve-4t, runs flips_perf and relays its report;
the last stdout line is the JSON result. Exits non-zero without a result
when the sources are missing, the build fails or any check fails.
"""
import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sync-femnist", "async-ecg-faults", "serve-4t")
RUN_TIMEOUT_S = 150


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally on every run."""
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "flips_perf"],
        check=True, stdout=sys.stderr)
    return BUILD / "flips_perf", BUILD / "flips" / "bench" / "flips_serve"


def start_server(server_bin, sock):
    """Starts flips_serve on a unix socket and waits until it listens."""
    if sock.exists():
        sock.unlink()
    # Two shared training workers; dead tenants are evicted after 1 s so
    # finished episodes do not pile up in the server.
    proc = subprocess.Popen(
        [str(server_bin), "--uds", str(sock.relative_to(ROOT)),
         "--threads", "2", "--idle-timeout", "1"],
        cwd=ROOT, stdout=sys.stderr)
    deadline = time.monotonic() + 30
    while not sock.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            stop_server(proc)
            raise RuntimeError("flips_serve did not start listening")
        time.sleep(0.02)
    return proc


def stop_server(proc):
    """Waits for a drained exit; SIGTERM, then SIGKILL, if it lingers."""
    for sig, wait_s in ((None, 10), (signal.SIGTERM, 5), (signal.SIGKILL, 5)):
        if sig is not None and proc.poll() is None:
            proc.send_signal(sig)
        try:
            return proc.wait(timeout=wait_s)
        except subprocess.TimeoutExpired:
            continue
    return proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    for needed in ("CMakeLists.txt", "src", "bench"):
        if not (ROOT / needed).exists():
            log(f"missing {needed}: run from a full source checkout")
            return 2
    try:
        perf_bin, server_bin = build()
    except (subprocess.CalledProcessError, OSError) as error:
        log("build failed:", error)
        return 2

    cmd = [str(perf_bin), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    server = None
    sock = BUILD / f"serve-{os.getpid()}.sock"
    try:
        if args.workload == "serve-4t":
            server = start_server(server_bin, sock)
            cmd += ["--uds", str(sock.relative_to(ROOT)),
                    "--server-pid", str(server.pid)]
        status = subprocess.run(cmd, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.TimeoutExpired, RuntimeError, OSError) as error:
        log("run failed:", error)
        status = 1
    finally:
        if server is not None:
            if stop_server(server) != 0:
                log("flips_serve exited with", server.returncode)
                status = status or 1
            if sock.exists():
                sock.unlink()
    return status


if __name__ == "__main__":
    sys.exit(main())

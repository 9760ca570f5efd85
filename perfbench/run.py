#!/usr/bin/env python3
"""Benchmark for tclab: one workload, one seed, one line of JSON results.

Run from the root of a checkout:

    python3 perfbench/run.py --workload epi --seed 1 --seconds 20 --trace 0

Workloads are ``epi``, ``radial``, ``calib`` and ``mix`` (see
``perfbench/README.md``).  With ``--trace 0`` the result holds the
end-to-end metrics: ``setup_s`` (median of several fresh-process set-ups),
``wall_s``, ``cert_p50_s``, ``cert_tail_s`` and ``peak_rss_mb``.  With
``--trace 1`` it holds the per-layer metrics of a traced run.  Outputs are
checked on every pass; ``attempted`` and ``failed`` count certificates.

Every child runs with BLAS pinned to one thread and is waited for; the
run's scratch directory under ``.bench_build/`` is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE = os.path.join(HERE, "measure.py")
WORKLOADS = ("epi", "radial", "calib", "mix")
SETUP_PROBES = 5
TIME_LIMIT = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# one BLAS thread per process, set before numpy is first imported here or
# in any child
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _stop(proc):
    """Kill a child and its process group (pool workers), then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _communicate(proc, deadline: float) -> str:
    """Wait for a child until the run's deadline; kill it past that."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise SystemExit("benchmark child timed out")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child failed with code {proc.returncode}")
    return out


def _start(mode, args, work_dir, *extra):
    cmd = [sys.executable, MEASURE, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", work_dir, *extra]
    return subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)


def setup_seconds(args, work_dir, deadline) -> tuple:
    """Fresh interpreter start to first certificate ready.

    The child prints the wall-clock time at which its first certificate
    was ready.  Returns (reference seconds, raw seconds).
    """
    from speed import kernel_seconds, speed_factor

    before = kernel_seconds()
    t0 = time.time()
    out = _communicate(_start("setup", args, work_dir), deadline)
    after = kernel_seconds()
    raw = float(out.split()[-1]) - t0
    return raw * speed_factor(before, after), raw


def measured_run(args, work_dir, deadline) -> dict:
    proc = _start("measure", args, work_dir, "--seconds", str(args.seconds),
                  "--trace", str(args.trace))
    return json.loads(_communicate(proc, deadline).strip().splitlines()[-1])


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_frac") or name.endswith("per_node") \
            or name.endswith("per_search"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tclab", "__init__.py")):
        print(f"no tclab sources under {os.path.join(ROOT, 'src')}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [setup_seconds(args, work_dir, deadline)
                      for _ in range(SETUP_PROBES)]
        res = measured_run(args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = res["metrics"]
    if setups:
        metrics["setup_s"] = statistics.median(s for s, _ in setups)
    attempted, failed = res["attempted"], res["failed"]
    for msg in res["messages"]:
        print(f"check: {msg}")
    for name in sorted(metrics):
        print(f"{args.workload:7s} {name:45s} {metrics[name]:.6g} "
              f"{_unit(name)}")
    print(f"{args.workload:7s} {'fail_frac':45s} {failed / attempted:.6g} "
          f"ratio ({failed} of {attempted} certificates)")
    if "tail_percentile" in res:
        print(f"{args.workload:7s} cert_tail_s is p{res['tail_percentile']:.4g} "
              f"of {res['cert_samples']} certificates")
    raw = f"raw wall_s {res['raw_wall_s']:.6g} s"
    if setups:
        raw += f", raw setup_s {statistics.median(r for _, r in setups):.6g} s"
    print(f"{args.workload:7s} {raw} (not speed-normalised)")
    env = ", ".join(f"{k} {v}" for k, v in res["environment"].items())
    print(f"{args.workload:7s} environment: {env}")
    dev = res["reference_deviation"]
    print(f"{args.workload:7s} passes {res['passes']}; largest relative "
          "deviation from reference artifacts: "
          + ("n/a" if dev is None else f"{dev:.3g}"))
    result = {
        "correct": failed == 0 and not res["messages"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

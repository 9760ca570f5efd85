#!/usr/bin/env python3
"""Write the anchor-pass artifacts of every workload to ``reference/``.

The benchmark compares each run's anchor artifacts with these files and
reports the largest relative deviation of their numbers (a report, not a
gate: roundoff-level fixes in tclab legitimately move it).  Rerun from the
root of a checkout only when a change is meant to move artifact numbers:

    python3 perfbench/make_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402


def main() -> int:
    for workload in W.WORKLOADS:
        config = W.pass_config(workload, W.ANCHOR_SEED, 0)
        work_dir = os.path.join(os.path.dirname(HERE), ".bench_build",
                                "perfbench", "reference")
        os.makedirs(work_dir, exist_ok=True)
        try:
            artifacts = W.run_pass(workload, config, work_dir)
        finally:
            shutil.rmtree(work_dir)
        attempted, failed, messages = W.check_pass(config, artifacts)
        if failed:
            print("\n".join(messages), file=sys.stderr)
            return 1
        out = os.path.join(HERE, "reference", workload)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        for name, text in sorted(artifacts.items()):
            with open(os.path.join(out, name), "w", newline="") as fh:
                fh.write(text)
        print(f"{workload}: {len(artifacts)} artifacts, "
              f"{attempted} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())

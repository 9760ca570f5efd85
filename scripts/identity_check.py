#!/usr/bin/env python3
"""Byte-identity of the run outputs of two revisions.

    python3 scripts/identity_check.py REV_A REV_B --jobs 1,2 --passes 4 \\
        --seed 1

REV_A is the parent and REV_B the change: any revisions git names (for
uncommitted work, ``git stash create`` names a commit of the working
tree's tracked files).  Each is exported with ``git archive`` into a
fresh directory, as ``bench_pairs.py`` does, and in each export:

* ``tclab run configs/desk.json --jobs J`` runs at each J of ``--jobs``,
  into ``desk/jobsJ/``: its artifacts, ``summary.csv``, and its stdout,
  stderr and exit status in ``stdout.txt``, ``stderr.txt`` and
  ``exit.txt``;
* passes 0 .. passes-1 of every benchmark workload at ``--seed`` write
  their artifacts into ``perfbench/WORKLOAD/passK/``, through the export's
  own ``perfbench/workloads.py`` (``pass_config`` and ``run_pass``).

The two output trees are then compared byte for byte.  Each file missing
on one side or differing is named, and a differing CSV or JSON artifact
gets ``artifact_drift.py``'s column report.  Exit status 1 on any
difference, 0 when every file is identical.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from artifact_drift import compare  # noqa: E402
from bench_pairs import SIDES, export  # noqa: E402

# writes the artifacts of the benchmark passes of one export; argv is
# (export, output directory, passes, seed)
PASSES = """
import os, sys
tree, out = sys.argv[1:3]
passes, seed = map(int, sys.argv[3:5])
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
import workloads
work = os.path.join(tree, "pass-work")
os.makedirs(work)
for w in workloads.WORKLOADS:
    for k in range(passes):
        dest = os.path.join(out, "perfbench", w, f"pass{k}")
        os.makedirs(dest)
        arts = workloads.run_pass(w, workloads.pass_config(w, seed, k), work)
        for name, text in arts.items():
            with open(os.path.join(dest, name), "w", newline="") as fh:
                fh.write(text)
"""


def _run(cmd, tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)


def produce(tree: str, out: str, jobs: list, passes: int, seed: int):
    """Write the desk runs and benchmark pass artifacts of one export."""
    for j in jobs:
        dest = os.path.join(out, "desk", f"jobs{j}")
        proc = _run([sys.executable, "-m", "tclab.cli", "run",
                     "configs/desk.json", "--out", dest, "--jobs", str(j)],
                    tree)
        os.makedirs(dest, exist_ok=True)
        for name, text in (("stdout.txt", proc.stdout),
                           ("stderr.txt", proc.stderr),
                           ("exit.txt", f"{proc.returncode}\n")):
            with open(os.path.join(dest, name), "w") as fh:
                fh.write(text)
    proc = _run([sys.executable, "-c", PASSES, tree, out, str(passes),
                 str(seed)], tree)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark passes failed in {tree}:\n"
                         + proc.stderr[-2000:])


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def compare_trees(old: str, new: str) -> tuple:
    """Report lines and the number of files compared; every file missing
    on one side or differing gives lines, identical ones give none."""
    lines = []
    names = sorted(_files(old) | _files(new))
    for name in names:
        paths = [os.path.join(root, name) for root in (old, new)]
        missing = [side for side, p in zip(SIDES, paths)
                   if not os.path.isfile(p)]
        if missing:
            lines.append(f"{name}: missing from the {missing[0]}")
            continue
        blobs = []
        for p in paths:
            with open(p, "rb") as fh:
                blobs.append(fh.read())
        if blobs[0] == blobs[1]:
            continue
        lines.append(f"{name}: differs")
        if name.endswith((".csv", ".json")):
            report, _ = compare(os.path.basename(name),
                                *(b.decode() for b in blobs))
            lines += ["  " + line for line in report]
    return lines, len(names)


def main(argv=None, make=produce, export=export) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a", help="parent revision")
    parser.add_argument("rev_b", help="change revision")
    parser.add_argument("--jobs", default="1,2",
                        help="comma-separated --jobs values of the desk run")
    parser.add_argument("--passes", type=int, default=4,
                        help="benchmark passes 0 .. passes-1 per workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed of the passes after the anchor")
    parser.add_argument("--work-dir", default=None,
                        help="where the exports go (removed after)")
    args = parser.parse_args(argv)
    jobs = [int(j) for j in args.jobs.split(",")]

    base = tempfile.mkdtemp(prefix="identity_check-", dir=args.work_dir)
    try:
        outs = {}
        for side, rev in zip(SIDES, (args.rev_a, args.rev_b)):
            tree = os.path.join(base, side)
            commit = export(rev, tree)
            outs[side] = os.path.join(base, side + "-out")
            make(tree, outs[side], jobs, args.passes, args.seed)
            print(f"{side}: {rev} = {commit}")
        lines, count = compare_trees(outs["parent"], outs["change"])
    finally:
        shutil.rmtree(base, ignore_errors=True)
    differ = sum(not line.startswith(" ") for line in lines)
    print("\n".join(lines + [f"{count} files compared, {differ} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

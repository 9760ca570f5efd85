#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, both built the same way.

    python3 scripts/bench_pairs.py REV_A REV_B --workload W --pairs N \\
        --seconds S --seed K --json OUT.json

REV_A is the parent and REV_B the change: any revisions git names (for
uncommitted work, ``git stash create`` names a commit of the working
tree's tracked files).  Each is exported with ``git archive`` into a
fresh directory, so neither side runs from a working checkout.  Pair k
runs ``perfbench/run.py --workload W --seed K+k --seconds S --trace 0``
on both sides, the parent first in even pairs and the change first in
odd ones.

For each end-to-end metric of the parent's ``BENCHMARK.json`` it prints
both medians, the change's move relative to the parent's median, the
parent's interquartile range and the pairs the change wins and loses (a
tie counts for neither), then names every run that is not ``correct``.
Every run and the summary are written to OUT.json, in the layout of the
repository's ``BENCH_*.json`` records.  Exit status 1 when a run is not
correct, 0 otherwise.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def schedule(pairs: int, seed: int) -> list:
    """(pair, seed, side) in run order: both sides of pair k on seed
    seed + k, the parent first in even pairs."""
    order = []
    for k in range(pairs):
        sides = SIDES if k % 2 == 0 else SIDES[::-1]
        order += [(k, seed + k, side) for side in sides]
    return order


def export(rev: str, dest: str) -> str:
    """Extract ``git archive`` of ``rev`` into ``dest``; return the
    commit's full hash."""
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    with subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                          stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev} failed")
    return commit


def run_perfbench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """The JSON line of one ``perfbench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip()[-400:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(trees: dict, workload: str, pairs: int, seconds: int,
              seed: int, run=run_perfbench) -> list:
    """Every run in schedule order, one flat record each; ``run`` is
    called as run(tree, workload, seed, seconds)."""
    runs = []
    for k, s, side in schedule(pairs, seed):
        res = run(trees[side], workload, s, seconds)
        record = {"workload": workload, "pair": k, "seed": s, "side": side,
                  "correct": bool(res.get("correct")),
                  "attempted": res.get("attempted"),
                  "failed": res.get("failed")}
        if "error" in res:
            record["error"] = res["error"]
        for name, metric in res.get("metrics", {}).items():
            record[name] = metric["value"]
        runs.append(record)
        print(f"pair {k} seed {s} {side:6s} "
              + ("correct" if record["correct"] else "NOT CORRECT"),
              file=sys.stderr, flush=True)
    return runs


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric (BENCHMARK.json entries with ``name`` and
    ``better``): medians, the change's relative move, the parent's IQR
    and the change's wins and losses over the pairs with both sides."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        by_pair = {}
        for r in runs:
            if name in r:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r[name]
        both = [p for p in by_pair.values() if len(p) == 2]
        if not both:
            continue
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent = statistics.median(p["parent"] for p in both)
        change = statistics.median(p["change"] for p in both)
        summary[name] = {
            "pairs": len(both),
            "parent_median": parent,
            "change_median": change,
            "change_over_parent": change / parent - 1.0,
            "parent_iqr": _iqr([p["parent"] for p in both]),
            "change_wins": sum(sign * (p["change"] - p["parent"]) < 0
                               for p in both),
            "change_losses": sum(sign * (p["change"] - p["parent"]) > 0
                                 for p in both),
        }
    return summary


def report(workload: str, summary: dict, runs: list) -> list:
    """Printed lines: one per metric, then one per run not correct."""
    lines = [f"{'metric':12s} {'parent':>10s} {'change':>10s} {'move':>7s} "
             f"{'parent_iqr':>10s}  wins/losses of pairs"]
    for name, s in summary.items():
        lines.append(
            f"{name:12s} {s['parent_median']:10.4g} {s['change_median']:10.4g}"
            f" {s['change_over_parent']:+7.1%} {s['parent_iqr']:10.3g}  "
            f"{s['change_wins']}/{s['change_losses']} of {s['pairs']}")
    for r in runs:
        if not r["correct"]:
            lines.append(f"NOT CORRECT: {workload} pair {r['pair']} seed "
                         f"{r['seed']} {r['side']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev_a", help="parent revision")
    parser.add_argument("rev_b", help="change revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of pair 0; pair k runs on seed + k")
    parser.add_argument("--json", required=True, help="output file")
    parser.add_argument("--work-dir", default=None,
                        help="where the exported trees go (removed after)")
    args = parser.parse_args(argv)

    base = tempfile.mkdtemp(prefix="bench_pairs-", dir=args.work_dir)
    try:
        trees = {side: os.path.join(base, side) for side in SIDES}
        revs = {side: export(rev, trees[side])
                for side, rev in zip(SIDES, (args.rev_a, args.rev_b))}
        with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
            metrics = json.load(fh)["end_to_end"]
        runs = run_pairs(trees, args.workload, args.pairs, args.seconds,
                         args.seed)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    summary = summarize(runs, metrics)
    lines = report(args.workload, summary, runs)
    print("\n".join(lines))
    record = {
        "workload": args.workload,
        "revs": revs,
        "method": f"python3 perfbench/run.py --workload {args.workload} "
                  f"--seed S --seconds {args.seconds} --trace 0 on git "
                  f"archive exports of both revisions; {args.pairs} pairs "
                  f"on seeds {args.seed}-{args.seed + args.pairs - 1}, the "
                  "parent first in even pairs",
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "summary": summary,
        "runs": runs,
    }
    with open(args.json, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 1 if any(not r["correct"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())

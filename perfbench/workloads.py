"""Workload configs, pass execution and output checks for the tclab benchmark.

A workload is a scenario config generated here and run through
``tclab.scenarios`` (``epi``, ``radial``, ``calib``) or ``tclab.cli``
(``mix``).  A run executes the workload in passes:

* the *anchor* pass uses a fixed config, identical for every seed.  It runs
  once untimed (warm-up), then again as the first timed pass; the two must
  produce byte-identical artifacts, and the anchor artifacts are compared
  against ``reference/<workload>/`` to report numerical drift;
* every later pass ``k`` uses a config drawn from ``(seed, k)``, so one run
  covers many seeded inputs and the median pass time does not hinge on the
  cost of a single random family.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

WORKLOADS = ("epi", "radial", "calib", "mix")

ANCHOR_SEED = 0
MIX_JOBS = 2
GRID = {"Q": [1, 2, 3], "ratios": [2, 3, 4], "amplitudes": [1e-3, 1e-2]}
# acceptance-suite tolerances (tests/test_acceptance.py, criteria 02 and 08)
GRID_RATIO_TOL = 0.05
SLACK_FLOOR = -1e-8

# Sizes per workload.  A seeded pass takes about 1.5-3 s on one core of a
# 2-core x86-64 box, so a 20 s run holds several passes.
EPI_RANDOM = 1
RADIAL = {"dec1_levels": 3, "dec2_levels": 2, "flat_levels": 4,
          "flat_tnodes": 3}
CALIB_PROBES = 8
MIX = {"random": 2, "dec1_levels": 3,
       "dec2_levels": 2, "flat_levels": 2, "flat_tnodes": 4, "probes": 3}
# cert_tail_s percentile per workload: the highest with ten or more
# certificates beyond it in a 20 s run on a 2-vCPU x86-64 VM
TAIL_PERCENTILE = {"epi": 95.0, "radial": 75.0, "calib": 90.0, "mix": 95.0}


def _seeds(seed: int, index: int, count: int) -> list:
    """Scenario seeds for pass ``index`` of a run with workload ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(s) for s in state]


def _grid(name, seed):
    return {"name": name, "kind": "epi", "seed": seed,
            "params": dict(GRID, random=0)}


def _random(name, seed, count):
    return {"name": name, "kind": "epi", "seed": seed,
            "params": {"Q": [], "ratios": [], "amplitudes": [],
                       "random": count, "lip_max": 0.1}}


def _decay(name, seed, Q, mode, amplitude, levels):
    return {"name": name, "kind": "decay", "seed": seed,
            "params": {"family": "extension", "Q": Q, "mode": mode,
                       "amplitude": amplitude, "levels": levels,
                       "epsilon12": 0.1, "eps": 0.5}}


def _flat(name, seed, amplitude, levels, tnodes):
    return {"name": name, "kind": "flat", "seed": seed,
            "params": {"Q": 1, "mode": 2, "amplitude": amplitude,
                       "levels": levels, "tnodes": tnodes}}


def _calib(name, seed, surface, omega, probes):
    return {"name": name, "kind": "calib", "seed": seed,
            "params": {"surface": surface, "omega": omega, "probes": probes,
                       "eps": [0.05], "bump_power": 10}}


def pass_config(workload: str, seed: int, index: int) -> dict:
    """Scenario config of pass ``index``; index 0 is the fixed anchor."""
    if index == 0:
        seed = ANCHOR_SEED
    s = _seeds(seed, index, 8)
    rng = np.random.default_rng(s[7])
    # amplitudes of the extension family: seeded, inside the regime the
    # decay and flat certificates are stated for
    a1, a3 = rng.uniform(0.005, 0.015, size=2)
    a2 = float(rng.uniform(0.0025, 0.0075))
    if workload == "epi":
        scenarios = [_grid("epi_grid", s[0]),
                     _random("epi_random", s[1], EPI_RANDOM)]
    elif workload == "radial":
        r = RADIAL
        scenarios = [
            _decay("decay_extension", s[2], 1, 2, float(a1), r["dec1_levels"]),
            _decay("decay_extension_q2", s[3], 2, 6, a2, r["dec2_levels"]),
            _flat("flat_sweep", s[4], float(a3), r["flat_levels"],
                  r["flat_tnodes"])]
    elif workload == "calib":
        scenarios = [_calib("calib_disk", s[5], "disk", 0.0, CALIB_PROBES),
                     _calib("calib_equator", s[6], "equator", 3.0,
                            CALIB_PROBES)]
    elif workload == "mix":
        m = MIX
        scenarios = [
            _grid("epi_grid", s[0]),
            _random("epi_random", s[1], m["random"]),
            _decay("decay_extension", s[2], 1, 2, float(a1), m["dec1_levels"]),
            _decay("decay_extension_q2", s[3], 2, 6, a2, m["dec2_levels"]),
            {"name": "decay_ode", "kind": "decay", "seed": s[4],
             "params": {"family": "ode", "levels": 10, "epsilon12": 0.1,
                        "alpha0": 1.0, "cbar": 0.5, "eps": 0.5,
                        "e0": 0.01, "r0": 1.0}},
            _flat("flat_sweep", s[4], float(a3), m["flat_levels"],
                  m["flat_tnodes"]),
            _calib("calib_disk", s[5], "disk", 0.0, m["probes"]),
            _calib("calib_equator", s[6], "equator", 3.0, m["probes"]),
            {"name": "split_pair", "kind": "split", "seed": s[7],
             "params": {"Q": [1, 2], "width": 0.05}}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"scenarios": scenarios}


def first_certificate_config(workload: str) -> dict:
    """One-certificate config cut from the anchor's first scenario."""
    first = json.loads(json.dumps(pass_config(workload, ANCHOR_SEED, 0)
                                  ["scenarios"][0]))
    p = first["params"]
    if first["kind"] == "epi":
        p.update(Q=[1], ratios=[2], amplitudes=[1e-3], random=0)
    elif first["kind"] == "decay":
        p["levels"] = 2
    elif first["kind"] == "calib":
        p["probes"] = 1
    return {"scenarios": [first]}


def expected_certificates(config: dict) -> dict:
    """Verdict rows each scenario's artifact must hold."""
    out = {}
    for sc in config["scenarios"]:
        p = sc["params"]
        kind = sc["kind"]
        if kind == "epi":
            n = len(p["Q"]) * len(p["ratios"]) * len(p["amplitudes"]) \
                + p["random"]
        elif kind in ("decay", "flat"):
            n = p["levels"]
        elif kind == "calib":
            n = p["probes"] * len(p["eps"])
        else:
            n = 1
        ext = "json" if kind == "split" else "csv"
        out[f"{sc['name']}.{ext}"] = n
    return out


# ---------------------------------------------------------------------------
# running one pass

def segments(workload: str, config: dict) -> list:
    """Parts of a pass timed one by one: each scenario of a serial
    workload, or the whole ``mix`` config, which runs in one pool."""
    if workload == "mix":
        return [config]
    return [{"scenarios": [sc]} for sc in config["scenarios"]]


def run_pass(workload: str, config: dict, work_dir: str) -> dict:
    """Run one pass; return ``{artifact name: text}``.

    ``epi``, ``radial`` and ``calib`` call ``tclab.scenarios`` serially and
    render each artifact in memory.  ``mix`` goes through ``tclab.cli.main``
    with a process pool and reads back the files it wrote.  Module
    attributes are looked up at call time so that tracer wrappers apply.
    """
    from tclab import cli, scenarios
    from tclab.errors import ScenarioError

    if workload != "mix":
        artifacts = {}
        for sc in scenarios.load_config(config):
            try:
                res = scenarios.run_scenario(sc)
            except ScenarioError:
                continue
            artifacts[scenarios.artifact_name(res)] = \
                scenarios.render_artifact(res)
        return artifacts

    cfg_path = os.path.join(work_dir, "mix.json")
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(["run", cfg_path, "--out", out_dir,
                  "--jobs", str(MIX_JOBS)])
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "summary.csv":
            continue
        with open(os.path.join(out_dir, name), newline="") as fh:
            artifacts[name] = fh.read()
    shutil.rmtree(out_dir)
    return artifacts


# ---------------------------------------------------------------------------
# output checks

def parse_csv(text: str):
    """Header and rows of a rendered CSV artifact, trailer dropped."""
    lines = [ln for ln in text.splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _row_ok(name: str, row: dict) -> bool:
    if row.get("verdict") != "PASS":
        return False
    if name == "epi_grid.csv":
        # single-mode rows: modes holds the one active frequency i
        a = int(row["modes"]) / int(row["Q"])
        if abs(float(row["ratio"]) - 2 * a / (1 + a * a)) > GRID_RATIO_TOL:
            return False
    if name.startswith("calib_") and float(row["slack"]) < SLACK_FLOOR:
        return False
    return True


def check_pass(config: dict, artifacts: dict) -> tuple:
    """(attempted, failed, messages) for one pass's artifacts."""
    attempted = failed = 0
    messages = []
    for name, want in expected_certificates(config).items():
        attempted += want
        text = artifacts.get(name)
        if text is None:
            failed += want
            messages.append(f"{name}: missing (scenario errored)")
            continue
        if name.endswith(".json"):
            ok = json.loads(text).get("verdict") == "PASS"
            failed += 0 if ok else want
            if not ok:
                messages.append(f"{name}: verdict not PASS")
            continue
        _, rows = parse_csv(text)
        bad = sum(1 for row in rows if not _row_ok(name, row))
        bad += max(want - len(rows), 0)
        if bad:
            messages.append(f"{name}: {bad} of {want} certificates failed")
        failed += min(bad, want)
    return attempted, failed, messages


def _numbers(text: str, name: str) -> list:
    if name.endswith(".json"):
        data = json.loads(text)
        return [float(v) for key in ("masses", "total_mass")
                for v in np.atleast_1d(data.get(key, []))]
    vals = []
    for row in parse_csv(text)[1]:
        for cell in row.values():
            try:
                vals.append(float(cell))
            except ValueError:
                pass
    return vals


def reference_deviation(artifacts: dict, ref_dir: str):
    """Largest relative deviation of artifact numbers from the references.

    Returns None when no reference artifacts exist for the workload.
    """
    if not os.path.isdir(ref_dir):
        return None
    worst = 0.0
    for name in sorted(os.listdir(ref_dir)):
        with open(os.path.join(ref_dir, name), newline="") as fh:
            ref = _numbers(fh.read(), name)
        got = _numbers(artifacts.get(name, ""), name) \
            if name in artifacts else []
        if len(got) != len(ref):
            return math.inf
        for a, b in zip(got, ref):
            scale = max(abs(a), abs(b))
            if scale > 0:
                worst = max(worst, abs(a - b) / scale)
    return worst

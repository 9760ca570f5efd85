"""Scenario loading, artifact format and CLI exit-code tests."""

import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tclab.epiperimetric as epi
import tclab.scenarios as scenarios
from tclab.cli import main
from tclab.currents import ParamSurface, RadialRestriction
from tclab.epiperimetric import mode_ratio
from tclab.errors import ConfigError, VertexTooClose
from tclab.fourier import FourierSeries
from tclab.scenarios import (RANDOM_RATIO_CAP, SCHEMAS, SUMMARY_COLUMNS,
                             Scenario, allowed_random_modes, load_config,
                             random_epi_curve, render_csv, run_scenario,
                             single_mode_series, summary_rows)


REPO = Path(__file__).resolve().parents[1]


def write_config(path, scenarios):
    path.write_text(json.dumps({"scenarios": scenarios}))
    return str(path)


SMALL_EPI = {"name": "epi_small", "kind": "epi", "seed": 7,
             "params": {"Q": [1], "ratios": [2],
                        "amplitudes": [1e-2], "random": 2}}


def test_load_config_happy_path():
    scenarios = load_config(json.dumps({"scenarios": [SMALL_EPI]}))
    assert len(scenarios) == 1
    assert scenarios[0].name == "epi_small"
    assert scenarios[0].kind == "epi"


def test_schema_field_types_are_type_objects_and_loads_repeat():
    # the parser and the command line read each key's type from
    # Field.type, so an annotation left as a string would reach them
    # uncompiled
    untyped = [f"{kind}.{f.name}" for kind, schema in SCHEMAS.items()
               for f in fields(schema)
               if not (isinstance(f.type, type)
                       or get_origin(f.type) in (tuple, Literal))]
    assert untyped == []
    desk = (REPO / "configs" / "desk.json").read_text()
    first, second = load_config(desk), load_config(desk)
    assert [sc.config_hash() for sc in second] == [
        sc.config_hash() for sc in first]
    assert [sc.typed for sc in second] == [sc.typed for sc in first]


@pytest.mark.parametrize("payload", [
    "{not json",
    json.dumps([1, 2, 3]),
    json.dumps({"no_scenarios": []}),
    json.dumps({"scenarios": [{"name": "x", "kind": "nope", "seed": 1}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "epi",
                               "seed": "abc"}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "epi", "seed": True}]}),
    json.dumps({"scenarios": [
        {"name": "dup", "kind": "epi", "seed": 1},
        {"name": "dup", "kind": "epi", "seed": 2}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "decay",
                               "params": {"levles": 2}}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "epi",
                               "params": {"Q": "x"}}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "decay",
                               "params": {"Q": 2, "mode": 2}}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "flat",
                               "params": {"Q": 1, "mode": 1}}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "decay",
                               "params": {"family": "ode", "mode": 3}}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "decay",
                               "params": {"epsilon12": 2}}]}),
    *(json.dumps({"scenarios": [{"name": "x", "kind": kind,
                                 "params": params}]})
      for kind, params in [
          ("flat", {"levels": 1}), ("decay", {"levels": 0}),
          ("calib", {"quad_order": 0}), ("flat", {"tnodes": 0}),
          ("epi", {"random": -1}), ("calib", {"probes": 0}),
          ("epi", {"amplitudes": [1e-2, 0]}), ("decay", {"amplitude": 0}),
          ("flat", {"amplitude": 0}), ("calib", {"eps": [0]}),
          ("epi", {"ratios": [1]}), ("epi", {"Q": [0]}),
          ("split", {"Q": [0, 1]}), ("decay", {"rho": 0}),
          ("flat", {"quad_order": [8, 0]}), ("epi", {"ratios": []}),
          ("epi", {"Q": [], "random": 0}), ("calib", {"eps": []}),
          ("split", {"Q": []}), ("calib", {"bump_power": 0}),
          ("split", {"width": 0}), ("decay", {"r_max": 3}),
          ("flat", {"r_max": 3}), ("epi", {"eps_target": 1e-2}),
          ("decay", {"budget": 10.0}), ("calib", {"form_scale": 1.0}),
          ("calib", {"comass_check": False}), ("calib", {"radius": 1.0}),
          ("calib", {"surface": "sphere"}), ("calib", {"omega": -2}),
          ("decay", {"family": "ode", "r0": -1}),
          ("decay", {"family": "ode", "e0": 0}),
          ("decay", {"family": "extension", "cbar": 5}),
          ("epi", {"ratios": [], "amplitudes": [], "random": 3}),
          ("decay", {"mode": None}), ("flat", {"mode": None})]),
])
def test_load_config_rejects_bad_input(payload):
    with pytest.raises(ConfigError):
        load_config(payload)


_NO_GRID = {"Q": [], "ratios": [], "amplitudes": [], "random": 0}


@pytest.mark.parametrize("payload, match", [
    ({"scenarios": {"x": {}}}, "'scenarios' must be a list"),
    ({"scenarios": [["epi"]]}, "scenario #0 is not an object"),
    ({"scenarios": [{"name": "a", "kind": "epi"}, {"kind": "epi"}]},
     "scenario #1 lacks a name"),
    ({"scenarios": [{"name": "x", "kind": "epi", "parms": {}}]},
     r"scenario 'x': unknown entry keys \['parms'\]"),
    ({"scenarios": [{"name": "x", "kind": "epi", "params": [1]}]},
     "scenario 'x': params must be an object"),
    ({"scenarios": [{"name": "x", "kind": "epi", "params": _NO_GRID}]},
     "scenario 'x': no curve to certify"),
], ids=["list", "object", "name", "entry-keys", "params", "no-curve"])
def test_load_config_names_what_is_wrong(payload, match):
    with pytest.raises(ConfigError, match=match):
        load_config(json.dumps(payload))


def test_cli_run_reports_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json",
                       [{"name": "x", "kind": "epi", "params": _NO_GRID}])
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("config error:")] == [
        "config error: scenario 'x': no curve to certify: the Q x ratios x "
        "amplitudes grid is empty and random is 0"]
    assert not out.exists()


def _run_configs():
    """configs/desk.json and benchmark pass configs: the anchor and two
    seeded passes of every workload, for two run seeds."""
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [json.loads((REPO / "configs" / "desk.json").read_text())]
    configs += [workloads.pass_config(w, seed, index)
                for w in workloads.WORKLOADS for seed in (1, 2)
                for index in (0, 1, 2)]
    return configs


def test_every_schema_key_and_choice_is_set_by_a_run():
    # a key or choice that no run sets is a knob nothing turns: it belongs
    # in a constant, not in the schema; a key tagged with a family must be
    # set by a run of that family, or the tag names a family that never
    # reads it
    runs = [sc for config in _run_configs() for sc in config["scenarios"]]
    used = {(sc["kind"], key, value if isinstance(value, str) else None)
            for sc in runs for key, value in sc["params"].items()}
    by_family = {(sc["kind"], key, sc["params"].get(
                     "family", getattr(SCHEMAS[sc["kind"]], "family", None)))
                 for sc in runs for key in sc["params"]}
    keys = {(kind, key) for kind, key, _ in used}
    unset = []
    for kind, schema in SCHEMAS.items():
        for f in fields(schema):
            family = f.metadata.get("family")
            if (kind, f.name) not in keys:
                unset.append(f"{kind}.{f.name}")
            elif (family and hasattr(schema, "family")
                  and (kind, f.name, family) not in by_family):
                unset.append(f"{kind}.{f.name} in family {family}")
            elif get_origin(f.type) is Literal:
                unset += [f"{kind}.{f.name}={choice}"
                          for choice in get_args(f.type)
                          if (kind, f.name, choice) not in used]
    assert unset == []


def test_scenario_hash_ignores_nothing(tmp_path):
    a = Scenario(name="x", kind="epi", seed=1, params={"Q": [1]})
    b = Scenario(name="x", kind="epi", seed=2, params={"Q": [1]})
    c = Scenario(name="x", kind="epi", seed=1, params={"Q": [2]})
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.config_hash() == Scenario(name="x", kind="epi", seed=1,
                                       params={"Q": [1]}).config_hash()


def test_rerun_is_byte_identical():
    sc = Scenario(name="epi", kind="epi", seed=99,
                  params={"Q": [1], "ratios": [2],
                          "amplitudes": [1e-2], "random": 3})
    first = render_csv(run_scenario(sc))
    second = render_csv(run_scenario(sc))
    assert first == second


def test_artifact_has_header_and_hash_trailer():
    sc = Scenario(**SMALL_EPI)
    text = render_csv(run_scenario(sc))
    lines = text.strip().split("\n")
    assert lines[0].startswith("Q,")
    assert lines[-1] == f"# config_hash={sc.config_hash()}"
    assert text.endswith("\n")


def test_allowed_modes_exclude_flat_and_slow():
    for Q in (1, 2, 3):
        modes = allowed_random_modes(Q)
        assert Q not in modes
        for i in modes:
            assert mode_ratio(i / Q) <= RANDOM_RATIO_CAP
    assert 4 not in allowed_random_modes(3)  # ratio 24/25 is too slow
    assert 2 in allowed_random_modes(3)      # 12/13 sits below the cap


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_random_epi_curves_stay_in_contract(seed):
    curve = random_epi_curve(np.random.default_rng(seed))
    assert curve.series.lipschitz() <= 0.1 + 1e-12
    assert 1 <= curve.Q <= 3
    series = curve.series
    for i in range(1, len(series.beta) + 1):
        active = (np.any(series.alpha[i] != 0.0)
                  or np.any(series.beta[i - 1] != 0.0))
        if active:
            assert i != curve.Q
            assert mode_ratio(i / curve.Q) <= RANDOM_RATIO_CAP


def test_summary_rows_follow_config_order():
    fast = Scenario(name="b", kind="epi", seed=1,
                    params={"Q": [1], "ratios": [2],
                            "amplitudes": [1e-2], "random": 0})
    slow = Scenario(name="a", kind="epi", seed=2,
                    params={"Q": [1], "ratios": [3],
                            "amplitudes": [1e-2], "random": 0})
    rows = summary_rows([run_scenario(fast), run_scenario(slow)])
    assert [r[0] for r in rows] == ["b", "a"]
    assert all(r[1] == "epi" for r in rows)


def test_cli_empty_config_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path / "empty.json", [])
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert os.path.exists(tmp_path / "out" / "summary.csv")


def test_cli_missing_config_exits_two(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_cli_malformed_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2


def test_cli_writes_artifacts_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", [SMALL_EPI])
    out = tmp_path / "out"
    code = main(["run", cfg, "--out", str(out)])
    assert code == 0
    text = (out / "epi_small.csv").read_text()
    assert text.splitlines()[0].startswith("Q,")
    assert "# config_hash=" in text
    assert (out / "summary.csv").exists()


def test_cli_failed_verdict_exits_one(tmp_path):
    # cbar = 50 drives the rate ODE's envelope constant past the budget
    out = tmp_path / "out"
    code = main(["decay", "--family", "ode", "--cbar", "50", "--levels", "4",
                 "--out", str(out)])
    assert code == 1
    rows = (out / "decay.csv").read_text().splitlines()[1:-1]
    assert len(rows) == 4
    assert all(row.endswith(",FAIL") for row in rows)


def test_cli_over_large_excess_is_a_refused_row(tmp_path, capsys):
    # amplitudes 0.5 and 0.6 put the reference-plane excess past the tilt
    # search's gate; each of those curves is a refused row, so the scenario
    # writes its artifact with no certified row and an empty epsilon13
    cfg = write_config(tmp_path / "cfg.json", [
        {"name": "too_steep", "kind": "epi", "seed": 1,
         "params": {"Q": [1], "ratios": [2], "amplitudes": [0.5, 0.6],
                    "random": 0}},
        {"name": "fine", "kind": "epi", "seed": 1,
         "params": {"Q": [1], "ratios": [2], "amplitudes": [1e-2],
                    "random": 0}}])
    out = tmp_path / "out"
    code = main(["run", cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "scenario 'too_steep' row 0: Q 1, modes 2, amplitude 0.5: "
        "ExcessTooLarge: excess 0.850 against the reference plane is too "
        "large to start the tilt search",
        "scenario 'too_steep' row 1: Q 1, modes 2, amplitude 0.6: "
        "ExcessTooLarge: excess 1.167 against the reference plane is too "
        "large to start the tilt search"]
    rows = (out / "too_steep.csv").read_text().splitlines()[1:-1]
    assert rows == ["1,1,2,0.5,,,,,,,REFUSED:ExcessTooLarge",
                    "1,1,2,0.6,,,,,,,REFUSED:ExcessTooLarge"]
    assert "PASS" in (out / "fine.csv").read_text()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1] == "too_steep,epi,0,2,,,,"
    assert summary[2].startswith("fine,epi,1,0,0.199")


def test_cli_errored_rerun_removes_the_stale_artifact(tmp_path, capsys):
    # an artifact left by an earlier run would read as the errored run's;
    # 21 levels put the innermost decay radius inside the vertex ball
    out = tmp_path / "out"
    args = ["decay", "--name", "d", "--out", str(out), "--levels"]
    assert main(args + ["8"]) == 0
    assert "PASS" in (out / "d.csv").read_text()
    assert main(args + ["21"]) == 1
    assert ("inner radius 4.76837158203125e-07 is inside the vertex ball "
            "1e-06") in capsys.readouterr().err
    assert not (out / "d.csv").exists()
    assert (out / "summary.csv").read_text().splitlines()[1:] == []


def _flat_runs(tmp_path, capsys, levels):
    """Exit code, outputs and stderr of ``tclab flat --levels L``, the
    same at --jobs 1 and 2."""
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"levels{levels}-jobs{jobs}"
        code = main(["flat", "--levels", str(levels), "--out", str(out),
                     "--jobs", jobs])
        runs.append((code, _outputs(out), capsys.readouterr().err))
    assert runs[1] == runs[0]
    return runs[0]


def test_cli_refused_flat_level_is_a_row(tmp_path, capsys):
    # 13 levels put the innermost flat radius inside the vertex ball: that
    # level is a refused row with one stderr line, and the 12 above it
    # keep the rows and the fit of a 12-level run
    code, twelve, err = _flat_runs(tmp_path, capsys, 12)
    assert (code, err) == (0, "")
    code, thirteen, err = _flat_runs(tmp_path, capsys, 13)
    assert code == 1
    assert err == ("scenario 'flat' row 0: r 0.0001220703125, s "
                   "6.103515625e-05: VertexTooClose: inner radius "
                   "5.62724784951195e-07 is inside the vertex ball 1e-06\n")
    rows = thirteen["flat.csv"].splitlines()[1:-1]
    assert rows[0] == ("0.0001220703125,6.103515625e-05,,,,"
                       "REFUSED:VertexTooClose")
    assert rows[1:] == twelve["flat.csv"].splitlines()[1:-1]
    summary = twelve["summary.csv"].replace("flat,flat,12,0,",
                                            "flat,flat,12,1,")
    assert thirteen["summary.csv"] == summary


def test_flat_fit_needs_two_levels_with_a_bound(monkeypatch):
    # a refused level drops out of the gamma0 and C fit; with one bound
    # left there is nothing to fit, so the summary leaves both empty
    filling = scenarios.radial_homotopy_filling

    def refuse_inner(surface, s, r, tnodes):
        if r < 0.5:
            raise VertexTooClose(f"inner radius {s} refused")
        return filling(surface, s, r, tnodes=tnodes)

    monkeypatch.setattr(scenarios, "radial_homotopy_filling", refuse_inner)
    res = run_scenario(Scenario(name="f", kind="flat", seed=0,
                                params={"levels": 3}))
    assert [row[-1] for row in res.rows] == ["REFUSED:VertexTooClose"] * 2 \
        + ["PASS"]
    assert res.notes == ["r 0.125, s 0.0625: VertexTooClose: inner radius "
                         "0.0625 refused",
                         "r 0.25, s 0.125: VertexTooClose: inner radius "
                         "0.125 refused"]
    assert res.fitted == {}
    assert summary_rows([res])[0][5:7] == ("", "")


def _stalled_series():
    """Profile of a codimension-2 curve whose tilt search stalls: Q 1,
    n 2, alpha_1 = (1e-2, 0) and alpha_3 = (0, 5e-3)."""
    alpha = np.zeros((4, 2))
    alpha[1, 0] = 1e-2
    alpha[3, 1] = 5e-3
    return FourierSeries(1, 2, alpha, np.zeros((3, 2)))


def _refusal_runs(tmp_path, capsys, args):
    """epi.csv and stderr of the epi shortcut with these flags, the same
    at --jobs 1 and 2; each run exits 1."""
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["epi", "--out", str(out), "--jobs", jobs] + args) == 1
        runs.append(((out / "epi.csv").read_text(), capsys.readouterr().err))
    assert runs[1] == runs[0]
    return runs[0][0].splitlines()[1:-1], runs[0][1]


@pytest.mark.parametrize("flags,row,note", [
    (["--qs", "1", "--ratios", "3", "--amplitudes", "5e-2"],
     "1,1,3,0.05,,,,,,,REFUSED:LipschitzTooLarge",
     "Q 1, modes 3, amplitude 0.05: LipschitzTooLarge: profile Lipschitz "
     "0.150 > 0.1"),
    (["--qs", "2", "--ratios", "5", "--amplitudes", "5e-2"],
     "2,1,10,0.05,,,,,,,REFUSED:ExcessTooLarge",
     "Q 2, modes 10, amplitude 0.05: ExcessTooLarge: excess 0.101 against "
     "the reference plane is too large to start the tilt search"),
    (["--qs", "1", "--ratios", "100", "--amplitudes", "1e-4"],
     "1,1,100,0.0001,,,,,,,REFUSED:Undersampled",
     "Q 1, modes 100, amplitude 0.0001: Undersampled: truncation tail "
     "5.000e-09 exceeds 1.0e-09 of total 5.000e-09"),
], ids=["LipschitzTooLarge", "ExcessTooLarge", "Undersampled"])
def test_cli_refused_grid_curve_is_a_row(tmp_path, capsys, flags, row, note):
    # the refused curve keeps its Q, n, modes and amplitude, and the two
    # random curves drawn after it still certify
    rows, err = _refusal_runs(tmp_path, capsys, flags + ["--random", "2"])
    assert rows[0] == row
    assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["PASS", "PASS"]
    assert err == f"scenario 'epi' row 0: {note}\n"


def test_cli_stalled_tilt_search_is_a_refused_row(tmp_path, capsys,
                                                 monkeypatch):
    # each drawn profile is certified through Scenario.with_curves; the
    # stalled one sits between two that certify
    monkeypatch.setattr("tclab.scenarios.epi_curves", lambda sc: [
        (single_mode_series(1, 2, 1e-2), 1e-2), (_stalled_series(), 1e-2),
        (single_mode_series(1, 3, 1e-2), 1e-2)])
    rows, err = _refusal_runs(tmp_path, capsys, [])
    assert rows[1] == "1,2,1+3,0.01,,,,,,,REFUSED:NoConvergence"
    assert rows[0].endswith(",PASS") and rows[2].endswith(",PASS")
    assert err == ("scenario 'epi' row 1: Q 1, modes 1+3, amplitude 0.01: "
                   "NoConvergence: tilt search stalled with |grad| = "
                   "6.77e-08\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_curve_error_outside_tclab_aborts_the_run(tmp_path, monkeypatch,
                                                      jobs):
    # only a TclabError is a refusal; anything else is a defect
    def broken(curve):
        raise RuntimeError("tilt search broke")

    monkeypatch.setattr("tclab.epiperimetric.optimal_plane", broken)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="tilt search broke"):
        main(["epi", "--qs", "1", "--ratios", "2,3", "--amplitudes", "1e-3",
              "--out", str(out), "--jobs", jobs])
    assert not (out / "epi.csv").exists()
    assert multiprocessing.active_children() == []


def test_cli_epi_grid_reports_measured_and_linear_ratios_and_refusals(
        tmp_path, capsys):
    # single-mode curves against the linear theory: each certified row
    # carries its measured ratio and L = 2a/(1 + a^2), and i = 3 at
    # amplitude 5e-2 regraphs to a profile steeper than the competitor's
    # Lipschitz budget
    out = tmp_path / "out"
    assert main(["epi", "--qs", "1", "--ratios", "2,3", "--amplitudes",
                 "1e-3,5e-2", "--out", str(out)]) == 1
    header, *rows = (out / "epi.csv").read_text().splitlines()[:-1]
    rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [(r["modes"], r["amplitude"], r["verdict"]) for r in rows] == [
        ("2", "0.001", "PASS"), ("2", "0.05", "PASS"), ("3", "0.001", "PASS"),
        ("3", "0.05", "REFUSED:LipschitzTooLarge")]
    for r in rows[:3]:
        assert float(r["L"]) == pytest.approx(mode_ratio(int(r["modes"])),
                                              abs=2.2e-16)
        assert abs(float(r["ratio"]) - float(r["L"])) < 2e-4
    assert capsys.readouterr().err.startswith("scenario 'epi' row 3: ")


def test_cli_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", [SMALL_EPI])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "123"]) == 0
    t1 = (out1 / "epi_small.csv").read_text()
    t2 = (out2 / "epi_small.csv").read_text()
    assert t1 != t2


def _outputs(out):
    """Every file a run wrote, by name."""
    return {path.name: path.read_text() for path in sorted(out.iterdir())}


def test_cli_parallel_run_matches_serial(tmp_path):
    # an epi grid and random curves, which split into one unit per curve,
    # beside whole decay and split scenarios
    scens = [{"name": "epi_mixed", "kind": "epi", "seed": 7,
              "params": {"Q": [1, 2], "ratios": [2], "amplitudes": [1e-2],
                         "random": 3}},
             {"name": "decay_demo", "kind": "decay", "seed": 2,
              "params": {"levels": 2}},
             {"name": "split_demo", "kind": "split", "seed": 3,
              "params": {"Q": [1, 1], "width": 0.05}}]
    cfg = write_config(tmp_path / "cfg.json", scens)
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", cfg, "--out", str(out), "--jobs", jobs]) == 0
        outputs.append(_outputs(out))
    assert sorted(outputs[0]) == ["decay_demo.csv", "epi_mixed.csv",
                                  "split_demo.json", "summary.csv"]
    assert len(outputs[0]["epi_mixed.csv"].splitlines()) == 1 + 5 + 1
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_cli_parallel_shortcut_matches_serial(tmp_path):
    # one scenario, so only the per-curve units give the second process
    # work
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["epi", "--random", "4", "--out", str(out),
                     "--jobs", jobs]) == 0
        outputs.append(_outputs(out))
    assert sorted(outputs[0]) == ["epi.csv", "summary.csv"]
    assert outputs[1] == outputs[0]


def _desk_scenario(name):
    desk = load_config((REPO / "configs" / "desk.json").read_text())
    return next(sc for sc in desk if sc.name == name)


def test_desk_grid_rows_carry_the_single_mode_linear_ratio():
    res = run_scenario(_desk_scenario("epi_grid"))
    col = res.columns.index
    for row in res.rows:
        a = int(row[col("modes")]) / row[col("Q")]
        assert abs(row[col("L")] - mode_ratio(a)) <= 2.2e-16


def test_desk_random_ratios_sit_within_quadratic_reach_of_l(monkeypatch):
    # the ratio tends to L as the regraphed profile flattens: on the desk
    # draws |ratio - L| has median 6.77e-5, worst 1.59e-2, and stays below
    # 7 lip^2 (worst 6.92 lip^2), lip the regraphed profile's Lipschitz
    # constant
    lips = []
    build = epi.build_competitor

    def recorded(*args, **kwargs):
        competitor, profile = build(*args, **kwargs)
        lips.append(profile.lipschitz())
        return competitor, profile

    monkeypatch.setattr(epi, "build_competitor", recorded)
    res = run_scenario(_desk_scenario("epi_random"))
    col = res.columns.index
    dev = np.array([abs(row[col("ratio")] - row[col("L")])
                    for row in res.rows])
    assert len(dev) == len(lips) == 200
    assert np.median(dev) == pytest.approx(6.77e-5, rel=1e-2)
    assert dev.max() == pytest.approx(1.59e-2, rel=1e-2)
    assert np.all(dev <= 7.0 * np.array(lips) ** 2)


def test_cli_parallel_errored_scenario_matches_serial(tmp_path, capsys):
    # the decay scenario errors at run time (21 levels reach the vertex
    # ball); whichever process certifies each unit, the report is the
    # serial run's: one error line, no decay artifact and the other
    # scenarios' artifacts
    cfg = write_config(tmp_path / "cfg.json", [
        {"name": "epi_fine", "kind": "epi", "seed": 1,
         "params": {"Q": [1], "ratios": [2], "amplitudes": [1e-3, 1e-2],
                    "random": 0}},
        {"name": "decay_deep", "kind": "decay", "seed": 1,
         "params": {"levels": 21}},
        {"name": "split_demo", "kind": "split", "seed": 3,
         "params": {"Q": [1, 1], "width": 0.05}}])
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", cfg, "--out", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.count("is inside the vertex ball") == 1
        assert "errored scenarios: decay_deep" in err
        reports.append((err, _outputs(out)))
    assert sorted(reports[0][1]) == ["epi_fine.csv", "split_demo.json",
                                     "summary.csv"]
    assert reports[1] == reports[0]


def _split_units(path, n):
    """A config of n one-unit split scenarios; unit k is named u<k>."""
    return write_config(path, [
        {"name": f"u{k}", "kind": "split", "seed": k,
         "params": {"Q": [1, 1], "width": 0.05}} for k in range(n)])


def _log_units(monkeypatch, log, gate, fail=lambda k, in_worker: None):
    """Patch the CLI's run_scenario to append "pid k" to log for unit k,
    then call fail(k, in_worker) and certify the unit.

    With gate set, this process waits after logging a unit until a worker
    has logged one, so a fast parent cannot take every unit first.
    """
    parent = os.getpid()

    def run(unit):
        k = int(unit.name[1:])
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {k}\n")
        deadline = time.monotonic() + 60
        while gate and os.getpid() == parent and time.monotonic() < deadline \
                and all(pid == parent for pid, _ in _logged(log)):
            time.sleep(0.005)
        fail(k, os.getpid() != parent)
        return run_scenario(unit)

    monkeypatch.setattr("tclab.cli.run_scenario", run)


def _logged(log):
    return [tuple(map(int, line.split()))
            for line in log.read_text().splitlines()]


def test_cli_jobs_every_process_gets_the_next_unit_from_one_counter(
        tmp_path, monkeypatch):
    cfg = _split_units(tmp_path / "cfg.json", 6)
    log = tmp_path / "units.log"
    _log_units(monkeypatch, log, gate=True)
    assert main(["run", cfg, "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    entries = _logged(log)
    assert sorted(k for _, k in entries) == list(range(6))
    taken = {}
    for pid, k in entries:
        taken.setdefault(pid, []).append(k)
    assert os.getpid() in taken and len(taken) == 2
    assert sorted(units[0] for units in taken.values()) == [0, 1]
    assert all(units == sorted(units) for units in taken.values())
    assert multiprocessing.active_children() == []


def test_cli_jobs_four_processes_certify_each_unit_once(
        tmp_path, monkeypatch):
    # four processes contend for the counter, more than a two-core desk
    # machine runs at once; a lost update would hand one unit to two of them
    cfg = _split_units(tmp_path / "cfg.json", 16)
    log = tmp_path / "units.log"
    _log_units(monkeypatch, log, gate=False)
    assert main(["run", cfg, "--out", str(tmp_path / "out"),
                 "--jobs", "4"]) == 0
    assert sorted(k for _, k in _logged(log)) == list(range(16))
    assert multiprocessing.active_children() == []


def test_cli_jobs_worker_death_names_its_exit_code(tmp_path, monkeypatch):
    def die_in_worker(k, in_worker):
        if in_worker:
            os._exit(3)

    cfg = _split_units(tmp_path / "cfg.json", 4)
    _log_units(monkeypatch, tmp_path / "units.log", gate=True,
               fail=die_in_worker)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        main(["run", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_jobs_unit_exception_propagates_as_in_a_serial_run(
        tmp_path, monkeypatch, jobs):
    # at --jobs 2 units 0 and 3 may raise in either process, and unit 3
    # may raise first; unit 0's error surfaces all the same
    def raise_at_0_and_3(k, in_worker):
        if k in (0, 3):
            raise ValueError(f"unit {k}")

    cfg = _split_units(tmp_path / "cfg.json", 4)
    out = tmp_path / "out"
    _log_units(monkeypatch, tmp_path / "units.log", gate=jobs != "1",
               fail=raise_at_0_and_3)
    with pytest.raises(ValueError, match="^unit 0$"):
        main(["run", cfg, "--out", str(out), "--jobs", jobs])
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


class _Abort(BaseException):
    pass


def test_cli_jobs_unwinding_terminates_a_busy_worker(tmp_path, monkeypatch):
    # the worker would sleep for a minute; this process aborts and must
    # not wait for it
    def stall_or_abort(k, in_worker):
        if in_worker:
            time.sleep(60)
        raise _Abort

    cfg = _split_units(tmp_path / "cfg.json", 4)
    _log_units(monkeypatch, tmp_path / "units.log", gate=True,
               fail=stall_or_abort)
    t0 = time.monotonic()
    with pytest.raises(_Abort):
        main(["run", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


def test_cli_pure_tilt_mode_exits_two(tmp_path, capsys):
    code = main(["decay", "--q", "2", "--mode", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "empty.json", [])
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert main(["decay", "--levels", "2", "--out", str(out),
                 "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: --jobs must be at least 1") == 2
    assert not out.exists()


def test_cli_decay_mode_defaults_to_twice_q(tmp_path):
    out = tmp_path / "out"
    assert main(["decay", "--q", "2", "--levels", "2", "--out", str(out)]) == 0
    rows = (out / "decay.csv").read_text().splitlines()
    explicit = Scenario(name="decay", kind="decay", seed=0,
                        params={"Q": 2, "mode": 4, "levels": 2})
    want = render_csv(run_scenario(explicit)).splitlines()
    assert len(rows) == 4  # header, two radii, hash trailer
    assert rows[:-1] == want[:-1]


def test_cli_decay_fits_both_inequalities_on_the_frames_it_reports(
        tmp_path, monkeypatch):
    # a self-checked ball mass builds two frames and a slab deviation one,
    # so L levels cost 3L - 1 frames; the C02 fit reads the same masses
    # and slabs as the rows and adds none
    frames = []
    for cls in (ParamSurface, RadialRestriction):
        build = cls.__dict__["_frame"]
        monkeypatch.setattr(cls, "_frame", lambda self, order, *args,
                            build=build, **kwargs: frames.append(order)
                            or build(self, order, *args, **kwargs))
    out = tmp_path / "out"
    assert main(["decay", "--q", "1", "--mode", "2", "--out", str(out)]) == 0
    assert len(frames) == 3 * 8 - 1
    header, row = (out / "summary.csv").read_text().splitlines()
    fit = dict(zip(header.split(","), row.split(",")))
    assert 0.0 < float(fit["C02"]) < 1e-3


def _summary_c02(params):
    sc = Scenario(name="d", kind="decay", seed=0, params=params)
    return summary_rows([run_scenario(sc)])[0][SUMMARY_COLUMNS.index("C02")]


def test_decay_alpha0_moves_the_extension_c02_only():
    # alpha0 is the exponent of the r^alpha0 term of the C02 fit; the ode
    # family has no slabs, so no C02
    extension = [_summary_c02({"levels": 3, "alpha0": a}) for a in (1, 5)]
    assert extension[0] < extension[1]
    assert _summary_c02({"family": "ode", "levels": 3}) == ""


def test_cli_epi_shortcut(tmp_path):
    out = tmp_path / "out"
    code = main(["epi", "--qs", "1", "--ratios", "2", "--amplitudes",
                 "1e-2", "--out", str(out), "--seed", "11"])
    assert code == 0
    files = os.listdir(out)
    assert "summary.csv" in files
    assert any(f.endswith(".csv") and f != "summary.csv" for f in files)


def test_cli_imports_and_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable, the package
    # still loads and an epi shortcut still certifies its curve
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import tclab.cli\n"
            "sys.exit(tclab.cli.main(['epi', '--q', '1', '--ratios', '2',"
            " '--amplitudes', '1e-3']))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in (tmp_path / "out" / "epi.csv").read_text()

"""Scenario loading, artifact format and CLI exit-code tests."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclab.cli import main
from tclab.epiperimetric import mode_ratio
from tclab.errors import ConfigError
from tclab.scenarios import (RANDOM_RATIO_CAP, Scenario,
                             allowed_random_modes, load_config,
                             random_epi_curve, render_csv, run_scenario,
                             summary_rows)


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


@pytest.mark.parametrize("payload", [
    "{not json",
    json.dumps([1, 2, 3]),
    json.dumps({"no_scenarios": []}),
    json.dumps({"scenarios": [{"name": "x", "kind": "nope", "seed": 1}]}),
    json.dumps({"scenarios": [{"name": "x", "kind": "epi",
                               "seed": "abc"}]}),
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
          ("flat", {"r_max": 3})]),
])
def test_load_config_rejects_bad_input(payload):
    with pytest.raises(ConfigError):
        load_config(payload)


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
    for i in range(1, series.nmodes + 1):
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


def test_cli_comass_violation_exits_one(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", [
        {"name": "bad_form", "kind": "calib", "seed": 5,
         "params": {"surface": "disk", "omega": 0.0, "probes": 3,
                    "eps": [0.05], "form_scale": 1.2}}])
    out = tmp_path / "out"
    code = main(["run", cfg, "--out", str(out)])
    assert code == 1
    text = (out / "bad_form.csv").read_text()
    assert "comass" in text and "FAIL" in text


def test_cli_over_large_excess_errors_one_scenario(tmp_path, capsys):
    # amplitude 0.5 puts the reference-plane excess past the tilt search's
    # gate; that scenario is reported as errored and the others still write
    cfg = write_config(tmp_path / "cfg.json", [
        {"name": "too_steep", "kind": "epi", "seed": 1,
         "params": {"Q": [1], "ratios": [2], "amplitudes": [0.5],
                    "random": 0}},
        {"name": "fine", "kind": "epi", "seed": 1,
         "params": {"Q": [1], "ratios": [2], "amplitudes": [1e-2],
                    "random": 0}}])
    out = tmp_path / "out"
    code = main(["run", cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "too large to start the tilt search" in err
    assert "errored scenarios: too_steep" in err
    assert "PASS" in (out / "fine.csv").read_text()
    assert not (out / "too_steep.csv").exists()
    summary = (out / "summary.csv").read_text()
    assert "fine" in summary and "too_steep" not in summary


def test_cli_seed_override_changes_hash(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", [SMALL_EPI])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "123"]) == 0
    t1 = (out1 / "epi_small.csv").read_text()
    t2 = (out2 / "epi_small.csv").read_text()
    assert t1 != t2


def test_cli_parallel_run_matches_serial(tmp_path):
    scens = [dict(SMALL_EPI),
             {"name": "split_demo", "kind": "split", "seed": 3,
              "params": {"Q": [1, 1], "width": 0.05}}]
    cfg = write_config(tmp_path / "cfg.json", scens)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(["run", cfg, "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["run", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    for name in ("epi_small.csv", "split_demo.json", "summary.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


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


def test_cli_epi_shortcut(tmp_path):
    out = tmp_path / "out"
    code = main(["epi", "--qs", "1", "--ratios", "2", "--amplitudes",
                 "1e-2", "--out", str(out), "--seed", "11"])
    assert code == 0
    files = os.listdir(out)
    assert "summary.csv" in files
    assert any(f.endswith(".csv") and f != "summary.csv" for f in files)

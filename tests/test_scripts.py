"""Smoke tests for the scripts under scripts/."""

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


def test_mode_sweep_reports_out_of_regime_points(capsys):
    sweep = runpy.run_path(os.path.join(SCRIPTS, "mode_sweep.py"))
    code = sweep["main"](["--qs", "1", "--max-ratio", "3",
                          "--amplitudes", "1e-3,5e-2"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4
    # i = 3 at amplitude 5e-2 regraphs to a profile steeper than the
    # competitor's Lipschitz budget
    assert rows[-1].split()[:2] == ["1", "3"]
    assert "out of regime: LipschitzTooLarge" in rows[-1]
    assert all("out of regime" not in row for row in rows[:2])


def _write_artifacts(root, ratio, verdict):
    root.mkdir()
    (root / "epi.csv").write_text(
        "Q,modes,ratio,verdict\n"
        f"1,2+3,0.5,PASS\n2,4,{ratio},{verdict}\n# config_hash=abc\n")
    (root / "split.json").write_text(
        '{"masses": [1.0, 2.0], "verdict": "PASS"}\n')


def test_artifact_drift_reports_column_moves_and_verdicts(tmp_path, capsys):
    drift = runpy.run_path(os.path.join(SCRIPTS, "artifact_drift.py"))
    _write_artifacts(tmp_path / "old", 0.25, "PASS")
    _write_artifacts(tmp_path / "new", 0.25 * (1 + 1e-12), "PASS")
    _write_artifacts(tmp_path / "flip", 0.25, "FAIL")
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert drift["main"]([old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epi.csv: verdicts match"
    moves = dict(line.split() for line in lines[1:3])
    assert moves["Q"] == "0"
    assert float(moves["ratio"]) == pytest.approx(1e-12, rel=1e-3)
    # "modes" is a text column that did not change, so it is not listed
    assert "modes" not in moves
    assert lines[3] == "split.json: verdicts match"
    assert lines[4].split() == ["masses", "0"]
    assert drift["main"]([old, str(tmp_path / "flip")]) == 1
    assert "epi.csv: verdicts DIFFER" in capsys.readouterr().out


def test_artifact_drift_tol_names_the_column_that_moves_too_far(tmp_path,
                                                                capsys):
    drift = runpy.run_path(os.path.join(SCRIPTS, "artifact_drift.py"))
    _write_artifacts(tmp_path / "old", 0.25, "PASS")
    _write_artifacts(tmp_path / "new", 0.25 * (1 + 1e-12), "PASS")
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert drift["main"]([old, new, "--tol", "1e-11"]) == 0
    assert "exceeds" not in capsys.readouterr().out
    assert drift["main"]([old, new, "--tol", "1e-13"]) == 1
    flagged = [line.split()[0] for line in capsys.readouterr().out
               .splitlines() if line.endswith("exceeds 1e-13")]
    assert flagged == ["ratio"]
    # without the option the same move passes, as before
    assert drift["main"]([old, new]) == 0

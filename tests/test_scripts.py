"""Smoke tests for the scripts under scripts/."""

import os
import runpy

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

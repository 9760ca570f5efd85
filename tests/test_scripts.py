"""Smoke tests for the scripts under scripts/."""

import os
import pathlib
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


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
    moves = {line.split()[0]: line.split()[1:] for line in lines[1:3]}
    assert moves["Q"] == ["0", "abs", "0"]
    rel, diff = float(moves["ratio"][0]), float(moves["ratio"][2])
    assert rel == pytest.approx(1e-12, rel=1e-3)
    assert diff == pytest.approx(2.5e-13, rel=1e-3)
    # "modes" is a text column that did not change, so it is not listed
    assert "modes" not in moves
    assert lines[3] == "split.json: verdicts match"
    assert lines[4].split() == ["masses", "0", "abs", "0"]
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


def test_artifact_drift_prints_the_absolute_move_of_a_column_near_zero(
        tmp_path, capsys):
    drift = runpy.run_path(os.path.join(SCRIPTS, "artifact_drift.py"))
    for side, mass in (("old", 9.3e-8), ("new", 9.3e-8 * (1 + 4.3e-11))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "calib.csv").write_text(
            f"eps,mass,mass_S,verdict\n0.05,3.14,{mass!r},PASS\n"
            f"0.01,3.14,{mass / 25!r},PASS\n")
    assert drift["main"]([str(tmp_path / "old"),
                          str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    moves = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    # a large relative move of a tiny column is a tiny absolute one
    rel, tag, diff = moves["mass_S"]
    assert tag == "abs"
    assert float(rel) == pytest.approx(4.3e-11, rel=1e-2)
    assert float(diff) == pytest.approx(4.0e-18, rel=1e-2)
    assert moves["mass"] == ["0", "abs", "0"]


def test_artifact_drift_names_added_columns_and_compares_the_rest(tmp_path,
                                                                 capsys):
    drift = runpy.run_path(os.path.join(SCRIPTS, "artifact_drift.py"))
    for side, extra in (("old", ("", "")), ("new", (",C02", ",7.8e-05"))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "summary.csv").write_text(
            f"scenario,kind,pass,C{extra[0]}\n"
            f"decay_extension,decay,8,0.5{extra[1]}\n")
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert drift["main"]([old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "summary.csv: columns differ: added C02"
    assert lines[1] == "summary.csv: verdicts match"
    moves = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(moves) == ["pass", "C"]
    assert moves["C"] == ["0", "abs", "0"]
    assert drift["main"]([new, old]) == 1
    assert capsys.readouterr().out.splitlines()[0] == \
        "summary.csv: columns differ: removed C02"


def test_bench_pairs_alternates_sides_on_shared_seeds(capsys):
    bench = runpy.run_path(os.path.join(SCRIPTS, "bench_pairs.py"))
    calls = []

    def fake(tree, workload, seed, seconds):
        calls.append((tree, seed))
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    trees = {"parent": "A", "change": "B"}
    runs = bench["run_pairs"](trees, "epi", 3, 20, 7, run=fake)
    assert calls == [("A", 7), ("B", 7), ("B", 8), ("A", 8),
                     ("A", 9), ("B", 9)]
    assert [(r["pair"], r["seed"], r["side"]) for r in runs] == [
        (0, 7, "parent"), (0, 7, "change"), (1, 8, "change"),
        (1, 8, "parent"), (2, 9, "parent"), (2, 9, "change")]
    assert all(r["wall_s"] == 1.0 and r["correct"] for r in runs)


def test_bench_pairs_aggregates_medians_iqr_and_wins():
    bench = runpy.run_path(os.path.join(SCRIPTS, "bench_pairs.py"))
    # wall_s: the change is lower in pairs 0 and 2, ties in pair 1 and is
    # higher in pair 3; pool_busy: higher is better
    values = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.0, 2.5, 5.0]}
    runs = [{"pair": k, "seed": 7 + k, "side": side, "correct": True,
             "wall_s": values[side][k], "busy": values[side][k]}
            for k in range(4) for side in ("parent", "change")]
    runs[3]["correct"] = False
    # a pair missing one side is left out of every statistic
    runs.append({"pair": 4, "seed": 11, "side": "parent", "correct": True,
                 "wall_s": 100.0, "busy": 100.0})
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "busy", "better": "higher"},
               {"name": "absent", "better": "lower", "bound": 0.2}]
    summary = bench["summarize"](runs, metrics)
    assert list(summary) == ["wall_s", "busy"]
    wall = summary["wall_s"]
    assert wall["pairs"] == 4
    assert wall["parent_median"] == 2.5 and wall["change_median"] == 2.25
    assert wall["change_over_parent"] == pytest.approx(-0.1)
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert wall["parent_iqr"] == pytest.approx(1.5)
    assert (wall["change_wins"], wall["change_losses"]) == (2, 1)
    assert (summary["busy"]["change_wins"],
            summary["busy"]["change_losses"]) == (1, 2)
    lines = bench["report"]("epi", summary, runs)
    assert lines[1].split()[:3] == ["wall_s", "2.5", "2.25"]
    assert lines[1].endswith("2/1 of 4")
    assert lines[-1] == "NOT CORRECT: epi pair 1 seed 8 change"


def _write_tree(root, ratio, verdict, extra=None):
    """A desk-shaped output tree: one CSV artifact, a stdout capture and
    one benchmark pass artifact."""
    desk = root / "desk" / "jobs1"
    desk.mkdir(parents=True)
    (desk / "epi.csv").write_text(
        f"Q,ratio,verdict\n1,0.5,PASS\n2,{ratio},{verdict}\n")
    (desk / "stdout.txt").write_text(f"epi  2  {verdict}\n")
    pas = root / "perfbench" / "calib" / "pass0"
    pas.mkdir(parents=True)
    (pas / "calib.csv").write_text("probe,slack,verdict\n0,1e-3,PASS\n")
    if extra:
        (pas / extra).write_text("{}\n")


def test_identity_check_names_each_file_that_differs(tmp_path):
    check = runpy.run_path(os.path.join(SCRIPTS, "identity_check.py"))
    _write_tree(tmp_path / "a", 0.25, "PASS")
    _write_tree(tmp_path / "b", 0.25, "PASS")
    _write_tree(tmp_path / "c", 0.5, "FAIL", extra="split.json")
    a, b, c = (str(tmp_path / side) for side in "abc")
    assert check["compare_trees"](a, b) == ([], 3)
    lines, count = check["compare_trees"](a, c)
    assert count == 4
    heads = [line for line in lines if not line.startswith(" ")]
    assert heads == ["desk/jobs1/epi.csv: differs",
                     "desk/jobs1/stdout.txt: differs",
                     "perfbench/calib/pass0/split.json: missing from the "
                     "parent"]
    # a differing artifact carries artifact_drift's column report
    assert lines[1] == "  epi.csv: verdicts DIFFER"
    assert lines[3].split() == ["ratio", "0.5", "abs", "0.25"]


def test_identity_check_exports_both_revisions_and_exits_on_drift(
        tmp_path, capsys):
    check = runpy.run_path(os.path.join(SCRIPTS, "identity_check.py"))
    calls = []
    ratio = {"parent": 0.25, "change": 0.3}

    def export(rev, tree):
        os.makedirs(tree)
        return rev * 2

    def make(tree, out, jobs, passes, seed):
        side = os.path.basename(tree)
        calls.append((side, jobs, passes, seed))
        _write_tree(pathlib.Path(out), ratio[side], "PASS")

    argv = ["A", "B", "--jobs", "1,2", "--passes", "3", "--seed", "5",
            "--work-dir", str(tmp_path)]
    assert check["main"](argv, make=make, export=export) == 1
    assert calls == [("parent", [1, 2], 3, 5), ("change", [1, 2], 3, 5)]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["parent: A = AA", "change: B = BB",
                       "desk/jobs1/epi.csv: differs"]
    assert out[-1] == "3 files compared, 1 differ"
    ratio["change"] = 0.25
    assert check["main"](argv, make=make, export=export) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "3 files compared, 0 differ"
    # the exports and their outputs are removed
    assert os.listdir(tmp_path) == []

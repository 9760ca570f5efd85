"""A serial run loads neither multiprocessing nor numpy.ma.

``tclab.cli`` imports ``multiprocessing`` only when it forks ``--jobs``
workers, since it pulls in socket, pickle and shared memory, and a run
with a single unit of work forks none at any ``--jobs``.  No path may
load ``concurrent.futures.process`` either: its pool hands each unit to
a worker through a thread of the parent, which waits on the parent's
GIL.  ``np.unique`` imports ``numpy.ma`` on its first call, which costs
more than a whole split scenario, so the library does not call it
on a run's path.  Each check runs in a fresh interpreter, because another
test may already have imported any of them.

Only a stdlib module may be imported lazily.  A function body that
imports a tclab module hides an import cycle between two modules, so
every tclab import sits at the top of its module, where the import
graph is plain to read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
HEAVY = ("multiprocessing", "concurrent.futures.process", "numpy.ma")


def _loaded_after(code, cwd):
    """The HEAVY modules in sys.modules after running code afresh."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    code += ("\nprint(' '.join(m for m in %r if m in sys.modules))\n"
             % (HEAVY,))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_importing_the_cli_loads_no_pool_and_no_masked_arrays(tmp_path):
    assert _loaded_after("import sys\nimport tclab.cli", tmp_path) == []


def test_a_serial_split_run_loads_no_pool_and_no_masked_arrays(tmp_path):
    code = ("import sys\n"
            "import tclab.cli\n"
            "assert tclab.cli.main(['split', '--qs', '1,2']) == 0\n")
    assert _loaded_after(code, tmp_path) == []
    assert "PASS" in (tmp_path / "out" / "split.json").read_text()


def test_a_one_unit_run_with_jobs_loads_no_pool(tmp_path):
    # a split scenario is one unit, so a second process would have no work
    code = ("import sys\n"
            "import tclab.cli\n"
            "assert tclab.cli.main(['split', '--qs', '1,2', '--jobs', '2'])"
            " == 0\n")
    assert _loaded_after(code, tmp_path) == []
    assert "PASS" in (tmp_path / "out" / "split.json").read_text()


def _tclab_imports_in_functions(path):
    """module.function of each function body in path that imports a
    tclab module, relatively or by its absolute name."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = ["tclab" if node.level else node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "tclab" for name in names):
                found.append(f"{path.stem}.{func.name}")
    return found


def test_no_function_body_imports_a_tclab_module():
    found = [hit for path in sorted(Path(SRC, "tclab").glob("*.py"))
             for hit in _tclab_imports_in_functions(path)]
    assert found == []

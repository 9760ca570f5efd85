"""Every module-level function and class in src/tclab has a library caller.

A name that nothing in src/tclab references outside its own body is code
that no run reaches: only tests call it.  It belongs in tests/oracles.py,
or a run should use it.  The allowlist names each exception with the
change that gives it a caller; a listed name that gains one fails too,
so the list never outlives its reasons.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tclab"

ALLOWED = {
    "check_almost_monotonicity": "ROADMAP item 10 gives the decay runs an "
                                 "almost-monotonicity verdict",
    "twovector_euclid_norm": "ROADMAP item 1 makes it the norm of the "
                             "tilt search's excess",
}


def _references(node) -> Counter:
    """Name ids and attribute names under node, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached_names() -> list:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    total = sum(map(_references, trees), Counter())
    return sorted(node.name for tree in trees for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and total[node.name] == _references(node)[node.name])


def test_every_library_name_has_a_library_caller():
    assert unreached_names() == sorted(ALLOWED)

"""Per-node dot products and norms in src/tclab go through geom.rowdot.

np.sum(a * b, axis=-1) and np.linalg.norm(a, axis=-1) reduce over the
last axis, which for points, tangents and tilts holds their 2-4
coordinates; on such short axes numpy's reduce is several times slower
than geom.rowdot and geom.rownorm, which give the same bits.  This test
fails when a call of either form appears in the library.  Sums over a
long last axis (quadrature nodes, time nodes, samples) are listed in
ALLOWED with their reasons; a listed site that goes away fails too, so
the list never outlives its reasons.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tclab"

# (module, enclosing function, call as ast.unparse prints it) -> reason
ALLOWED = {
    ("calibration", "_Flow.sweep", "np.sum(self.weight * vol, axis=-1)"):
        "sums each time node's volume elements over the support nodes",
}


def _last_axis(call) -> bool:
    return any(kw.arg == "axis" and ast.unparse(kw.value) == "-1"
               for kw in call.keywords)


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op,
                                                      (ast.Mult, ast.Pow))


def _reduces_coordinates(call) -> bool:
    """np.linalg.norm(a, axis=-1), np.sum(a * b, axis=-1) or
    (a * b).sum(axis=-1)."""
    if not (isinstance(call, ast.Call) and _last_axis(call)):
        return False
    name = ast.unparse(call.func)
    if name == "np.linalg.norm":
        return True
    if name == "np.sum":
        return bool(call.args) and _is_product(call.args[0])
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "sum"
            and _is_product(call.func.value))


def coordinate_reductions() -> set:
    """(module, enclosing function, call) of every such call."""
    found = set()

    def visit(node, scope, module):
        if _reduces_coordinates(node):
            found.add((module, ".".join(scope), ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            visit(child, inner, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.stem)
    return found


def test_the_guard_recognizes_each_form():
    forms = ["np.linalg.norm(x, axis=-1)", "np.sum(x * y, axis=-1)",
             "np.sum(x ** 2, axis=-1)", "(x * y).sum(axis=-1)"]
    kept = ["np.linalg.norm(W, axis=(-2, -1))", "np.sum(vals, axis=-1)",
            "np.sum(x * y, axis=0)", "np.linalg.norm(v)"]
    for text in forms:
        assert _reduces_coordinates(ast.parse(text, mode="eval").body), text
    for text in kept:
        assert not _reduces_coordinates(ast.parse(text, mode="eval").body), \
            text


def test_coordinate_reductions_go_through_rowdot():
    assert coordinate_reductions() == set(ALLOWED)

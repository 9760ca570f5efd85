"""Every name in src/tclab has a library reader.

A module-level function or class that nothing in src/tclab references
outside its own body is code that no run reaches: only tests call it.
It belongs in tests/oracles.py, or a run should use it.  The same holds
for the members of a class: every method, property and dataclass field
that is not a dunder must be read as an attribute somewhere in
src/tclab outside its own definition.  A read ``self.x`` inside class C
counts only for the members x of C, its bases and its subclasses; any
other read matches by name, so a member read under the same name on
another receiver counts as read.  The allowlist names each exception
with the change that gives it a reader; a listed name that gains one
fails too, so the list never outlives its reasons.

An error class is read by every ``except`` that catches it and every
import, so the name guard passes one that nothing raises.  Every
subclass of TclabError in errors.py must therefore also be raised by a
``raise`` statement somewhere in src/tclab.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tclab"

ALLOWED = {}


def _references(node) -> Counter:
    """Name ids and attribute names under node, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _is_self_read(node) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _attribute_reads(node) -> Counter:
    """Attribute names under node, with multiplicity."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def _self_reads(node) -> Counter:
    """Names x of the ``self.x`` reads under node, with multiplicity."""
    return Counter(n.attr for n in ast.walk(node) if _is_self_read(n))


def _members(cls):
    """(name, node) of the non-dunder methods, properties and fields."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            name = node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name, node


def _kin(classes) -> dict:
    """Each class name mapped to itself, its bases and its subclasses
    among the given classes, followed through every generation."""
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for cls in classes}

    def ancestors(name):
        return set().union(*({b} | ancestors(b)
                             for b in bases.get(name, ())))

    up = {c: ancestors(c) for c in bases}
    return {c: ({c} | up[c] | {d for d in bases if c in up[d]})
            & bases.keys() for c in bases}


def unreached_names(trees=None) -> list:
    if trees is None:
        trees = [ast.parse(path.read_text())
                 for path in sorted(SRC.glob("*.py"))]
    total = sum(map(_references, trees), Counter())
    classes = [node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)]
    own = {cls.name: _self_reads(cls) for cls in classes}
    kin = _kin(classes)
    # reads on any receiver but the self of a class body
    reads = (sum(map(_attribute_reads, trees), Counter())
             - sum(own.values(), Counter()))
    names = [node.name for tree in trees for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and total[node.name] == _references(node)[node.name]]
    members = [f"{cls.name}.{name}" for cls in classes
               for name, node in _members(cls)
               if reads[name] + sum(own[k][name] for k in kin[cls.name])
               == _attribute_reads(node)[name]]
    return sorted(names + members)


def _raised(node) -> set:
    """Names of the exceptions the ``raise`` statements under node raise."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def unraised_errors(errors=None, trees=None) -> list:
    """Subclasses of TclabError defined in the errors tree, followed
    through every generation, that no tree raises."""
    if errors is None:
        errors = ast.parse((SRC / "errors.py").read_text())
        trees = [ast.parse(path.read_text())
                 for path in sorted(SRC.glob("*.py"))]
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in errors.body if isinstance(node, ast.ClassDef)}
    family = {"TclabError"}
    while grown := {c for c, b in bases.items() if b & family} - family:
        family |= grown
    raised = set().union(*map(_raised, trees))
    return sorted(family - raised - {"TclabError"})


def test_every_library_name_has_a_library_caller():
    assert unreached_names() == sorted(ALLOWED)


def test_member_guard_counts_reads_outside_the_definition():
    tree = ast.parse(
        "class A:\n"
        "    x: int\n"
        "    y: int\n"
        "    def f(self):\n"
        "        return self.f() + self.x\n"
        "    @property\n"
        "    def g(self):\n"
        "        return 0\n"
        "    def __call__(self):\n"
        "        return 0\n"
        "class B:\n"
        "    x: int\n"
        "    z: int\n"
        "class C(B):\n"
        "    def k(self):\n"
        "        return self.z\n"
        "def h(a):\n"
        "    return A(x=1, y=a.g) + C().k()\n")
    # A's self.x reads A.x alone, so B.x is unread; C's self.z reads the
    # z C inherits from B
    assert unreached_names([tree]) == ["A.f", "A.y", "B.x", "h"]


def test_every_error_class_is_raised():
    assert unraised_errors() == []


def test_error_guard_counts_raises_not_handlers():
    errors = ast.parse(
        "class TclabError(Exception):\n"
        "    pass\n"
        "class Caught(TclabError):\n"
        "    pass\n"
        "class Raised(TclabError):\n"
        "    pass\n"
        "class Child(Raised):\n"
        "    pass\n"
        "class Other(Exception):\n"
        "    pass\n")
    user = ast.parse(
        "from .errors import Caught, Child, Raised\n"
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except (Caught, Child):\n"
        "        raise errors.Raised('wrapped')\n")
    # Caught and Child are imported and caught but raised nowhere; Other
    # is no TclabError
    assert unraised_errors(errors, [errors, user]) == ["Caught", "Child"]

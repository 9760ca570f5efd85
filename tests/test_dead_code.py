"""Every name in src/tclab has a library reader.

A module-level function or class that nothing in src/tclab references
outside its own body is code that no run reaches: only tests call it.
It belongs in tests/oracles.py, or a run should use it.  The same holds
for the members of a class: every method, property and dataclass field
that is not a dunder must be read as an attribute somewhere in
src/tclab outside its own definition.  Matching is by name, so a member
read under the same name on another class counts as read.  The
allowlist names each exception with the change that gives it a reader;
a listed name that gains one fails too, so the list never outlives its
reasons.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tclab"

ALLOWED = {
    "twovector_euclid_norm": "ROADMAP item 1 makes it the norm of the "
                             "tilt search's excess",
}


def _references(node) -> Counter:
    """Name ids and attribute names under node, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _attribute_reads(node) -> Counter:
    """Attribute names under node, with multiplicity."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


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


def unreached_names(trees=None) -> list:
    if trees is None:
        trees = [ast.parse(path.read_text())
                 for path in sorted(SRC.glob("*.py"))]
    total = sum(map(_references, trees), Counter())
    reads = sum(map(_attribute_reads, trees), Counter())
    classes = [node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)]
    names = [node.name for tree in trees for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and total[node.name] == _references(node)[node.name]]
    members = [f"{cls.name}.{name}" for cls in classes
               for name, node in _members(cls)
               if reads[name] == _attribute_reads(node)[name]]
    return sorted(names + members)


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
        "def h(a):\n"
        "    return A(x=1, y=a.g)\n")
    assert unreached_names([tree]) == ["A.f", "A.y", "h"]

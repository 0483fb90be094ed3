"""Arrays get their dtype and shape where they enter the program.

Internal functions take arrays as their producers made them, so an
``np.asarray`` or ``np.atleast_1d`` call may appear only in the boundary
functions listed here, each with the reason it converts.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "privemb"

CONVERSIONS = ("asarray", "atleast_1d")

# module.function -> why it converts
BOUNDARY = {
    "graphcore.Graph.__post_init__": "a Graph is also built outside the package, by the bench",
    "graphcore.normalize_adjacency": "scipy returns the row sums as an np.matrix",
}


class _Conversions(ast.NodeVisitor):
    """(qualified function name, line) of each np.asarray / np.atleast_1d call."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in CONVERSIONS
                and isinstance(f.value, ast.Name) and f.value.id == "np"):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def _conversions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Conversions(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def test_only_boundary_functions_convert_arrays():
    stray = [f"{name} (line {line})" for name, line in _conversions() if name not in BOUNDARY]
    assert not stray, f"conversions of built values: {stray}"


def test_every_boundary_entry_still_converts():
    # an entry whose conversion is gone leaves the list
    assert set(BOUNDARY) == {name for name, _ in _conversions()}

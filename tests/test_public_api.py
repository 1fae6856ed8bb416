"""Static guard: every public name has a reader outside the unit tests.

A name in ``qbsde.__all__`` must be read somewhere other than its own
definition and its ``__all__`` entry: in the package itself, in the
benchmark harness (``perfbench/``), in the experiment configs, or in the
import list of the acceptance suite.  A name that only its own unit tests
read is dead API and should be deleted with those tests.  The check parses
source files only; it imports nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qbsde"

#: The closed-form reference the unit tests compare estimators against.
ALLOWED_UNREAD = {"constant_closed_form_triple"}


def _literal_all(tree: ast.Module) -> ast.List:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return node.value
    raise AssertionError("no __all__ assignment")


def _public_names() -> set[str]:
    """``qbsde.__all__`` resolved from the source of ``__init__`` and its modules."""
    names = set()
    for elt in _literal_all(ast.parse((PACKAGE / "__init__.py").read_text())).elts:
        if isinstance(elt, ast.Starred):  # *module.__all__
            module = PACKAGE / f"{elt.value.value.id}.py"
            names.update(ast.literal_eval(_literal_all(ast.parse(module.read_text()))))
        else:
            names.add(ast.literal_eval(elt))
    return names


class _Reads(ast.NodeVisitor):
    """Names read by code: loads, attributes and exact string constants.

    Skips each ``__all__`` list and anything inside the definition of the
    name being read, so a definition never counts as its own reader.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._enclosing: list[str] = []

    def _add(self, name: str) -> None:
        if name not in self._enclosing:
            self.names.add(name)

    def _visit_def(self, node) -> None:
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def _read_names() -> set[str]:
    reads = _Reads()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        reads.visit(ast.parse(path.read_text()))
    names = set(reads.names)
    for path in (ROOT / "configs").glob("*.ini"):
        names.update(re.findall(r"\w+", path.read_text()))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in acceptance.body:
        if isinstance(node, ast.ImportFrom) and node.module == "qbsde":
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_reader():
    public = _public_names()
    assert ALLOWED_UNREAD <= public
    unread = sorted(public - _read_names() - ALLOWED_UNREAD)
    assert not unread, f"public names read only by their own unit tests: {unread}"

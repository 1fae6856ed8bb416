"""Static guards: public names and options need callers outside the unit tests.

A name in ``qbsde.__all__`` must be read somewhere other than its own
definition and its ``__all__`` entry: in the package itself, in the
benchmark harness (``perfbench/``), in the experiment configs, or in the
import list of the acceptance suite.  An optional parameter of a public
function must be set by some call in the package, the benchmark harness or
the acceptance suite.  A name or option that only its own unit tests reach
is dead API and should be deleted with those tests.  The checks parse
source files only; they import nothing.
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


#: Optional parameters no call sets, each kept for a stated reason.
ALLOWED_UNSET = {
    # ROADMAP item 6 varies the clustering ratio to measure the grid bias.
    ("build_grid", "ratio"),
}


def _public_functions() -> dict[str, ast.FunctionDef]:
    """Module-level functions of ``qbsde.__all__``, by name."""
    public = _public_names()
    out = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                out[node.name] = node
    return out


def _optional(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    optional = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is not None]
    return optional


def _set_parameters(functions: dict[str, ast.FunctionDef]) -> set[tuple[str, str]]:
    """``(function, parameter)`` pairs some call sets, by keyword or position.

    A call is matched on the called name (``f(...)`` or ``mod.f(...)``).  A
    ``*args`` argument counts as setting every positional parameter from its
    place on.
    """
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in functions:
                continue
            fn = functions[name].args
            positional = [a.arg for a in [*fn.posonlyargs, *fn.args]]
            starred = next((i for i, a in enumerate(node.args)
                            if isinstance(a, ast.Starred)), None)
            n_set = len(positional) if starred is not None else len(node.args)
            out.update((name, p) for p in positional[:n_set])
            out.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return out


def test_every_optional_parameter_has_a_caller():
    functions = _public_functions()
    optional = {(f, p) for f, fn in functions.items() for p in _optional(fn)}
    assert ALLOWED_UNSET <= optional
    unset = sorted(optional - _set_parameters(functions) - ALLOWED_UNSET)
    assert not unset, f"optional parameters no caller outside unit tests sets: {unset}"

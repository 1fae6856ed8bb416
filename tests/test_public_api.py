"""Static guards: public names and options need callers outside the unit tests.

A name in ``qbsde.__all__`` must be read somewhere other than its own
definition and its ``__all__`` entry: in the package itself, in the
benchmark harness (``perfbench/``), in the experiment configs, or in the
import list of the acceptance suite.  An optional parameter of a public
function must be set by some call in the package, the benchmark harness or
the acceptance suite.  A name or option that only its own unit tests reach
is dead API and should be deleted with those tests.  No public function
takes a construction twice, as ``(spec, ensemble)`` and again as an
evaluated or solved record.  No module tests a kind's name: what depends on
the kind is in its law, ``catalog.TRAITS``.  The checks parse source files
only; they import nothing.
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


#: Names that build a clock kind's clock, and the modules that may name them:
#: the engine and the catalog, whose law table holds every kind's clock map.
CLOCK_BUILDERS = {"simulate_two_sided_exit", "SigmaSampler", "clock_coefficients"}
CLOCK_MODULES = {"core.py", "catalog.py"}


def _named(tree: ast.AST) -> set[str]:
    """Identifiers a module names: loads, stores, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
    return out


def test_only_the_engine_and_catalog_build_clocks():
    offenders = {
        path.name: sorted(CLOCK_BUILDERS & _named(ast.parse(path.read_text())))
        for path in PACKAGE.glob("*.py") if path.name not in CLOCK_MODULES
    }
    offenders = {k: v for k, v in offenders.items() if v}
    assert not offenders, f"clocks built outside core and catalog: {offenders}"


#: Records that carry one construction already evaluated or solved.
CONSTRUCTION_RECORDS = {"MprFunctionals", "SolutionTriple"}


def _annotated_records(arg: ast.arg) -> set[str]:
    if arg.annotation is None:
        return set()
    return CONSTRUCTION_RECORDS & set(re.findall(r"\w+", ast.unparse(arg.annotation)))


def test_no_function_takes_a_construction_twice():
    # A function given (spec, ensemble) evaluates them itself, and a check of
    # a record reads the construction from the record: taking both lets the
    # two disagree.
    offenders = []
    for name, fn in sorted(_public_functions().items()):
        args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        names = {a.arg for a in args}
        records = set().union(*(_annotated_records(a) for a in args))
        if records and names & {"spec", "ensemble"}:
            offenders.append(f"{name}: {sorted(names & {'spec', 'ensemble'})} "
                             f"with {sorted(records)}")
    assert not offenders, f"constructions passed twice: {offenders}"


#: Modules that never compare a kind with a kind name, and those of them that
#: never spell one outside the law table ``TRAITS`` and the ``mpr_*``
#: builders: a formula that depends on the kind belongs in the kind's law.
KIND_BLIND = {"bmo.py", "solver.py", "catalog.py", "cli.py"}
KIND_UNSPELLED = {"bmo.py", "solver.py", "catalog.py"}


def _is_law_table(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [
        getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "TRAITS" for t in targets)


def _kind_names() -> set[str]:
    """The keys of ``catalog.TRAITS``, read from its source."""
    for node in ast.parse((PACKAGE / "catalog.py").read_text()).body:
        if _is_law_table(node):
            return {ast.literal_eval(key) for key in node.value.keys}
    raise AssertionError("no TRAITS table in catalog.py")


def _spelled(node: ast.AST, kinds: set[str]) -> list[ast.Constant]:
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value in kinds]


def _kind_tests(tree: ast.AST, kinds: set[str]) -> list[str]:
    """Comparisons of a kind (``x.kind``, ``kind``, ``cfg.spec_kind``) with kind names."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        names = [getattr(s, "attr", getattr(s, "id", "")) for s in sides]
        if (any(n.endswith("kind") for n in names)
                and any(_spelled(s, kinds) for s in sides)):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def _kind_literals(tree: ast.Module, kinds: set[str]) -> list[str]:
    """Kind names spelled outside the law table and the ``mpr_*`` builders."""
    allowed = set()
    for node in tree.body:
        if _is_law_table(node) or (isinstance(node, ast.FunctionDef)
                                   and node.name.startswith("mpr_")):
            allowed.update(map(id, ast.walk(node)))
    return [f"{n.lineno}: {n.value!r}" for n in _spelled(tree, kinds)
            if id(n) not in allowed]


def test_no_module_branches_on_a_kind_name():
    kinds = _kind_names()
    assert len(kinds) == 8
    offenders = {}
    for name in sorted(KIND_BLIND):
        tree = ast.parse((PACKAGE / name).read_text())
        found = _kind_tests(tree, kinds)
        if name in KIND_UNSPELLED:
            found += _kind_literals(tree, kinds)
        if found:
            offenders[name] = found
    assert not offenders, f"kind names tested outside the law table: {offenders}"


def test_the_kind_guard_sees_every_form():
    source = """
TRAITS: dict = {"zero": 1, "tilde": 2}
def mpr_zero(): return Spec("zero")
def f(spec, kind, cfg):
    if spec.kind == "zero": pass
    if kind != "tilde": pass
    if "zero" == cfg.spec_kind: pass
    if spec.kind in ("tilde", "zero"): pass
    if spec.law.null and kind == other: pass
    return "tilde"
"""
    tree = ast.parse(source)
    kinds = {"zero", "tilde"}
    assert [t.split(":")[0] for t in _kind_tests(tree, kinds)] == ["5", "6", "7", "8"]
    assert sorted(_kind_literals(tree, kinds)) == [
        "10: 'tilde'", "5: 'zero'", "6: 'tilde'", "7: 'zero'", "8: 'tilde'", "8: 'zero'"]

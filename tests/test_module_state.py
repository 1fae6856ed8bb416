"""Static guard: the package keeps no process-wide caches.

A result must depend on its arguments only, never on what an earlier call in
the process computed, and memory must be freed with the objects that own it.
So no module of ``src/qbsde`` binds a name to an empty mutable container
that calls would fill (``{}``, ``[]``, ``dict()``, ``set()``,
``OrderedDict()``, ``defaultdict(...)``, ...), and no function is memoized
by ``functools.lru_cache`` or ``functools.cache``.  Populated constant
tables such as ``catalog.TRAITS`` are allowed, and so is
``functools.cached_property``, whose cache lives and dies with its
instance.  The check parses source files only; it imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbsde"

#: Constructors whose call with no contents makes an empty mutable container.
CONTAINERS = {"dict", "list", "set", "bytearray", "OrderedDict", "deque", "Counter"}
#: Constructors that make an empty container whatever their arguments.
FACTORIES = {"defaultdict"}
#: Decorators that keep every result of a function for the process.
MEMOIZERS = {"lru_cache", "cache"}


def _name(node: ast.AST) -> str | None:
    """``f`` of ``f``, ``mod.f`` and of either called."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _empty_container(value: ast.AST | None) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    if isinstance(value, ast.Call):
        name = _name(value)
        return name in FACTORIES or (
            name in CONTAINERS and not value.args and not value.keywords)
    return False


def _process_state(tree: ast.Module) -> list[str]:
    """Module-level empty containers and memoized functions, by name."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and _empty_container(node.value):
            found += [ast.unparse(t) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and _empty_container(node.value):
            found.append(ast.unparse(node.target))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_name(d) in MEMOIZERS for d in node.decorator_list):
                found.append(f"{node.name}()")
    return found


def test_no_module_keeps_process_wide_state():
    offenders = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name in _process_state(ast.parse(path.read_text()))]
    assert not offenders, f"process-wide caches: {offenders}"


def test_the_guard_sees_every_form():
    source = """
import functools
from collections import OrderedDict, defaultdict
TABLE = {"a": 1}
ITEMS = [1, 2]
a = {}
b: list[int] = []
c = dict()
d = OrderedDict()
e = collections.defaultdict(list)
f = set()
@functools.lru_cache(maxsize=4)
def g(x): return x
class K:
    @functools.cache
    def h(self): return 1
    @functools.cached_property
    def i(self): return 1
"""
    assert _process_state(ast.parse(source)) == ["a", "b", "c", "d", "e", "f", "g()", "h()"]

"""Every imported name in src/, tests/ and demos/ is referenced, no
`except` handler in src/ swallows its exception with a bare `pass` (every
failure is classified or re-raised), no function in src/ imports from
the package: its modules import each other at the top, and every exception
class in src/ is declared in frame.py, so the failure types that the CLI
maps to exit codes are read in one module, and every module-level UPPER_CASE
constant in src/ is read somewhere in src/, so a retired setting cannot
linger beside the code that no longer reads it, and every module-level
private function in src/ is referenced from src/, so a replaced helper
cannot linger for its unit test alone, and no module-level code in src/
applies functools.cache or lru_cache(maxsize=None) to a function that takes
arguments, so no such memo of the package grows without bound (a cache of a
function of no arguments holds one value; a module-level dict used as a
memo is beyond what this rule can see), and in src/ only algebra.py, which
defines them, and frame.py, whose frame operator is built of them, import
the atom kernel's privates, so that the Moyal plane's STFT cannot drift
back onto the lattice atoms, and ConvergenceError is constructed in
frame._krylov_reading alone, so that exit 4 keeps its one meaning: the
Lanczos run missed the dual's tolerance, and no code in src/ builds an
object through a `__new__` call such as `object.__new__`, so every
instance passes through its class's one constructor (`LatticeSeq.__init__`
casts every box and origin), and in src/ only lattice.py calls
`lattice_generators`: its `index_bounds` and the one index→phase-space map
`lattice_shift`, which every atom, derivation and lattice point reads, and
BOX_BUDGET is assigned and read in signal.py alone: no other module in
src/ imports it, compares against it or sizes an array from it, so every
refusal and sizing rule reads the one budget through `signal._fit_budget`
at call time, and a test that patches it once reaches every check.

Package `__init__.py` files are skipped, because their imports are the
package's re-exports, and so is an import on a line marked `# noqa: F401`.
"""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py") if path.name != "__init__.py")


def unused_imports(path):
    """(line, name) of each name `path` imports and never references."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = [(node.lineno, alias.asname or alias.name.split(".")[0])
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]
                for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def swallowing_handlers(path):
    """Lines of the `except` handlers in `path` whose whole body is `pass`."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ExceptHandler)
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)]


SOURCES = [path for path in FILES if path.is_relative_to(ROOT / "src")]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_exception_is_swallowed(path):
    assert swallowing_handlers(path) == []


def local_relative_imports(path):
    """Lines of the relative imports in `path` made inside a function."""
    return [node.lineno for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, ast.ImportFrom) and node.level]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_function_local_relative_import(path):
    assert local_relative_imports(path) == []


def exception_classes(paths):
    """(file name, class name) of each class in `paths` that derives, through
    classes of `paths` or directly, from a builtin exception or from a class
    whose name ends in Error or Exception."""
    defs = [(path.name, node.name, [getattr(base, "id", getattr(base, "attr", ""))
                                    for base in node.bases])
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)]
    names = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = set()
    while new := {(file, name) for file, name, bases in defs
                  if any(b in names or b.endswith(("Error", "Exception")) for b in bases)} - found:
        found |= new
        names |= {name for _, name in new}
    return found


def test_exception_classes_are_declared_in_frame():
    found = exception_classes(SOURCES)
    assert {name for _, name in found} >= {"ToleranceError", "GridError", "NotAFrameError",
                                           "ConvergenceError"}
    assert {file for file, _ in found} == {"frame.py"}


def unread_constants(paths):
    """Module-level UPPER_CASE names assigned in `paths` that no code in
    `paths` reads, as a name or as a module attribute."""
    trees = [ast.parse(path.read_text()) for path in paths]
    assigned = {target.id for tree in trees for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in getattr(node, "targets", [getattr(node, "target", None)])
                if isinstance(target, ast.Name) and target.id.isupper()}
    read = {getattr(node, "id", getattr(node, "attr", None)) for tree in trees
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    return sorted(assigned - read)


def test_every_constant_is_read():
    assert unread_constants(SOURCES) == []


def unreferenced_private_functions(paths):
    """Module-level functions in `paths` whose names start with one underscore
    that no code in `paths` references, as a name or as a module attribute."""
    trees = [ast.parse(path.read_text()) for path in paths]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    referenced = {getattr(node, "id", getattr(node, "attr", None)) for tree in trees
                  for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(defined - referenced)


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(SOURCES) == []


def _is_unbounded_cache(node) -> bool:
    """`cache` or `functools.cache`, or a call lru_cache(None) or
    lru_cache(maxsize=None)."""
    if getattr(node, "id", getattr(node, "attr", None)) == "cache":
        return True
    if not isinstance(node, ast.Call) or getattr(
            node.func, "id", getattr(node.func, "attr", None)) != "lru_cache":
        return False
    size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in size)


def _takes_arguments(fn) -> bool:
    args = fn.args
    return bool(args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg)


def unbounded_caches(path):
    """Lines of `path` where module-level code, function and method
    decorators included, applies an unbounded cache, except to a function
    of no arguments."""
    found, stack = [], list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if _is_unbounded_cache(node):
            found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _takes_arguments(node):
                stack.extend(node.decorator_list)   # the body runs at call time
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("source, lines", [
    ("@cache\ndef f(x): pass", [1]), ("@functools.cache\ndef f(*x): pass", [1]),
    ("@lru_cache(None)\ndef f(x=1): pass", [1]), ("f = cache(g)", [1]),
    ("class C:\n    @lru_cache(maxsize=None)\n    def f(self): pass", [2]),
    ("@lru_cache(maxsize=1)\ndef f(x): pass", []), ("@cache\ndef f(): pass", []),
    ("def f():\n    return cache(g)", [])])
def test_unbounded_cache_rule_finds_each_form(source, lines, tmp_path):
    path = tmp_path / "case.py"
    path.write_text(source)
    assert unbounded_caches(path) == lines


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unbounded_module_level_cache(path):
    assert unbounded_caches(path) == []


ATOM_KERNEL = {"_analyse", "_atoms", "_translates", "_modulations", "_synthesise", "_right_action"}


def atom_kernel_imports(path):
    """Names of the atom kernel's privates that `path` imports."""
    return sorted({alias.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) for alias in node.names} & ATOM_KERNEL)


def test_only_algebra_and_frame_import_the_atom_kernel():
    assert {path.name for path in SOURCES if atom_kernel_imports(path)} <= {"algebra.py", "frame.py"}


def constructions(paths, name):
    """(file name, innermost enclosing function, "" at module level) of each
    call of `name` in `paths`."""
    found = set()

    def visit(node, file, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == name:
                found.add((file, func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, file, child.name if inner else func)
    for path in paths:
        visit(ast.parse(path.read_text()), path.name, "")
    return found


def test_only_the_lanczos_reading_raises_convergence_error():
    assert constructions(SOURCES, "ConvergenceError") == {("frame.py", "_krylov_reading")}


def test_no_object_is_built_through_object_new():
    assert constructions(SOURCES, "__new__") == set()


def test_only_the_phase_space_map_reads_the_generators():
    assert constructions(SOURCES, "lattice_generators") == {("lattice.py", "index_bounds"),
                                                           ("lattice.py", "lattice_shift")}


def budget_references(path):
    """How `path` refers to BOX_BUDGET: "assigned", "imported" or "read"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and any(a.name == "BOX_BUDGET" for a in node.names):
            found.add("imported")
        elif getattr(node, "id", getattr(node, "attr", None)) == "BOX_BUDGET":
            found.add("assigned" if isinstance(node.ctx, ast.Store) else "read")
    return found


def test_the_budget_has_one_owner():
    found = {path.name: budget_references(path) for path in SOURCES}
    assert {name: refs for name, refs in found.items() if refs} == {
        "signal.py": {"assigned", "read"}}

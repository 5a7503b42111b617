"""Static checks on the package source: no dead helpers, no unused
imports, no private names read across objects or modules, no new module state,
a light import, no hand-made immutability, and a cap on the package's
total lines.

A module-level function or class that nothing in the package names and
that `rghw/__init__.py` does not re-export is dead code; so is a method
that no attribute read (`x.name`) outside its own body reaches, and an
imported name that its module never uses.  Dunder methods
are called by Python itself and are exempt, as are the re-exports of
`__init__.py`.  A name that appears only in a string annotation counts
as used.  An underscore attribute is read only through `self` or `cls`,
so that, for one, no module but `gf.py` touches a Field's tables, and
no module imports an underscore name from another (`from .x import _y`),
so a private helper's contract stays inside the module that states it.
A `raise` names `RghwError`, `BudgetExceeded`, `AssertionError` (a state
no input reaches) or `SystemExit` (an entry point), and only `errors.py`
defines an exception class, so bad input is one type to catch.  No
function binds a module global but `oracle_rghw_support`, which keeps
the `SupportOracle` of the latest pair asked through it in `_held`; the
CLI holds its own objects and does not call it.
"""

from __future__ import annotations

import ast
import builtins
import subprocess
import sys
from collections import Counter
from pathlib import Path

import rghw

PACKAGE = Path(rghw.__file__).parent
# lines of src/rghw/*.py once the polynomials were folded into codes.py;
# the package may shrink below it but not grow past it
SOURCE_LINE_CAP = 1824


def parsed_modules() -> dict:
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def string_annotation_names(tree) -> set:
    """Names inside annotations written as string literals."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    annotations.append(arg.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def used_names(tree) -> set:
    """Every name read as a variable or an attribute, or in a string annotation."""
    names = string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree) -> dict:
    """{bound name: line} of the module's imports, `__future__` excepted."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def definitions(tree):
    """(node, is_method) of every module-level function and class and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, True


def attribute_reads(tree) -> Counter:
    """How often each attribute name is read (`x.name`) in `tree`."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def dead_definitions(modules: dict) -> list:
    used = set().union(*(used_names(tree) for tree in modules.values()))
    reads = sum((attribute_reads(tree) for tree in modules.values()), Counter())
    exported = set(imported_names(modules["__init__.py"]))
    # a name imported from another module of the package counts as a use there
    for name, tree in modules.items():
        if name != "__init__.py":
            used |= set(imported_names(tree))
    dead = []
    for name, tree in modules.items():
        for node, method in definitions(tree):
            defined = node.name
            if defined.startswith("__") and defined.endswith("__"):
                continue
            if method:  # reached only by an attribute read outside its own body
                alive = reads[defined] > attribute_reads(node)[defined]
            else:
                alive = defined in used or defined in exported
            if not alive:
                dead.append(f"{name}:{node.lineno} {defined}")
    return dead


def unused_imports(modules: dict) -> list:
    unused = []
    for name, tree in modules.items():
        if name == "__init__.py":  # its imports are the public API
            continue
        used = used_names(tree)
        for bound, line in imported_names(tree).items():
            if bound not in used:
                unused.append(f"{name}:{line} {bound}")
    return unused


# documented NamedTuple methods, underscored only to stay clear of field names
NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make", "_replace"}


def foreign_private_reads(modules: dict) -> list:
    """Underscore attributes reached through anything but `self` or `cls`;
    dunders and the NamedTuple API are public."""
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if not (dunder or own or node.attr in NAMEDTUPLE_API):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return found


def private_imports(modules: dict) -> list:
    """Underscore names, dunders aside, that a module imports from a module
    of the package."""
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    return found


# defaulted parameters that no call in the package passes: argv is passed
# only by callers outside it (tests, embedders), and None means sys.argv
UNPASSED_DEFAULT_EXEMPT = {("cli.py", "main", "argv")}


def functions(tree):
    """(qualified name, node, bound) of every function and method, nested
    ones included; bound is True for a method, whose first parameter a
    call does not pass."""
    owners = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owners.get(id(node))
            yield (f"{owner}.{node.name}" if owner else node.name), node, owner is not None


def calls_by_name(modules: dict) -> dict:
    """{callee name: [(positional count, keyword names)]} of every call in
    the package, a callee named by its variable or attribute name; a call
    through a module-level alias (`alias = Target`) counts for the target.
    A `*` argument passes every positional parameter; a `**` argument puts
    None among the keywords, and passes every parameter."""
    aliases = {}
    for tree in modules.values():
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and [type(t) for t in node.targets] == [ast.Name]
            ):
                aliases[node.targets[0].id] = node.value.id
    calls: dict = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            passed = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(aliases.get(name, name), []).append((passed, keywords))
    return calls


def unpassed_defaults(modules: dict) -> list:
    """Defaulted parameters of a function or method that no call in the
    package passes, by keyword or by position; a call to a class counts
    for its __init__ and __new__."""
    calls = calls_by_name(modules)
    found = []
    for module, tree in modules.items():
        for qualname, node, bound in functions(tree):
            name = node.name
            if name in ("__init__", "__new__"):
                name = qualname.split(".")[0]
            seen = calls.get(name, [])
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [
                (arg, i - bound)
                for i, arg in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ]
            defaulted += [
                (arg, float("inf"))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg, index in defaulted:
                hit = any(
                    count > index or arg.arg in keywords or None in keywords
                    for count, keywords in seen
                )
                if not hit and (module, qualname, arg.arg) not in UNPASSED_DEFAULT_EXEMPT:
                    found.append((module, node.lineno, f"{qualname}({arg.arg})"))
    return [f"{module}:{line} {what}" for module, line, what in sorted(found)]


# the latest support set-up, the one module state left; nothing may add another
GLOBAL_EXEMPT = {("oracle.py", "oracle_rghw_support", "_held")}


def global_statements(modules: dict) -> list:
    """Names bound by a `global` statement, each with the innermost function
    that holds the statement."""
    found = []
    for module, tree in modules.items():
        owner = {}  # outer functions come first, so a nested one overwrites
        for qualname, node, _ in functions(tree):
            owner.update((stmt, qualname) for stmt in ast.walk(node) if isinstance(stmt, ast.Global))
        for stmt, qualname in sorted(owner.items(), key=lambda item: item[0].lineno):
            found += [
                f"{module}:{stmt.lineno} {qualname}({name})"
                for name in stmt.names
                if (module, qualname, name) not in GLOBAL_EXEMPT
            ]
    return found


def setattr_overrides(modules: dict) -> list:
    """Classes that define `__setattr__`, and reads of `object.__setattr__`:
    an immutable value type here is a NamedTuple, which needs neither."""
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{name}:{item.lineno} {node.name}.__setattr__"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                ]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append(f"{name}:{node.lineno} object.__setattr__")
    return found


# what a `raise` may name: the package's two errors, AssertionError for a
# state no input reaches, and SystemExit for the entry points
RAISABLE = {"RghwError", "BudgetExceeded", "AssertionError", "SystemExit"}
BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def foreign_raises(modules: dict) -> list:
    """`raise` statements that name none of RAISABLE; a bare `raise` names none."""
    found = []
    for name, tree in modules.items():
        raises = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Raise)), key=lambda n: n.lineno)
        for node in raises:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised = "raise" if exc is None else ast.unparse(exc)
            if raised not in RAISABLE:
                found.append(f"{name}:{node.lineno} {raised}")
    return found


def exception_classes(modules: dict) -> list:
    """Classes outside errors.py whose bases name an exception: a builtin
    one or a class of the package that derives from one."""
    known = set(BUILTIN_EXCEPTIONS)
    found = []
    for name, tree in sorted(modules.items(), key=lambda item: item[0] != "errors.py"):
        classes = sorted((n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)), key=lambda n: n.lineno)
        for node in classes:
            if any(ast.unparse(base).split(".")[-1] in known for base in node.bases):
                known.add(node.name)
                if name != "errors.py":
                    found.append(f"{name}:{node.lineno} {node.name}")
    return found


def test_no_dead_helpers():
    assert dead_definitions(parsed_modules()) == []


def test_no_unused_imports():
    assert unused_imports(parsed_modules()) == []


def test_no_unpassed_defaults():
    assert unpassed_defaults(parsed_modules()) == []


def test_no_private_attributes_read_across_objects():
    assert foreign_private_reads(parsed_modules()) == []


def test_no_private_names_imported_across_modules():
    assert private_imports(parsed_modules()) == []


def test_no_new_module_state():
    assert global_statements(parsed_modules()) == []


def test_only_the_package_errors_are_raised():
    modules = parsed_modules()
    assert foreign_raises(modules) == []
    assert exception_classes(modules) == []


def test_no_setattr_overrides():
    assert setattr_overrides(parsed_modules()) == []


def test_source_line_budget():
    lines = {path.name: len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py")}
    assert sum(lines.values()) <= SOURCE_LINE_CAP, lines


def test_import_leaves_out_dataclasses_and_inspect():
    # both are heavy imports that the package does not need
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import rghw; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_checks_catch_what_they_look_for():
    source = (
        "from .polynomials import MultiPoly\n"
        "from .codes import CartesianGrid\n"
        "def _helper():\n    return 1\n"
        "def used(grid: 'CartesianGrid'):\n    return grid\n"
        "class Thing:\n    def spare(self):\n        return used\n"
        "    def __repr__(self):\n        return ''\n"
    )
    modules = {"__init__.py": ast.parse("from .m import used\n"), "m.py": ast.parse(source)}
    assert dead_definitions(modules) == ["m.py:3 _helper", "m.py:7 Thing", "m.py:8 spare"]
    assert unused_imports(modules) == ["m.py:1 MultiPoly"]
    # a method lives only by an attribute read outside its own body: not by
    # a variable of its name, nor by calling itself
    methods = (
        "class Field:\n"
        "    def add(self, a):\n        return a\n"
        "    def sub(self, a):\n        return a\n"
        "    def pow(self, a, n):\n        return self.pow(a, n - 1)\n"
        "def loop(field, subs):\n    return [field.add(sub) for sub in subs]\n"
    )
    modules = {"__init__.py": ast.parse("from .m import Field, loop\n"), "m.py": ast.parse(methods)}
    assert dead_definitions(modules) == ["m.py:4 sub", "m.py:6 pow"]
    private = (
        "def f(field, rec, self):\n"
        "    return field._log, self._log, rec._replace(), field.__class__, g()._exp\n"
    )
    assert foreign_private_reads({"m.py": ast.parse(private)}) == ["m.py:2 field._log", "m.py:2 g()._exp"]
    imports = (
        "from .boxcomb import BoxShape, _unchecked\n"
        "from . import _version, __version__\n"
        "from ._private import helper\n"
        "from random import _inst\n"
    )
    assert private_imports({"m.py": ast.parse(imports)}) == ["m.py:1 _unchecked", "m.py:2 _version"]
    defaults = (
        "class Grid:\n"
        "    def __init__(self, sizes, policy='first', spare=None):\n        self.k = 0\n"
        "    def scale(self, k=1, *, fast=False, slow=False):\n        return k\n"
        "make = Grid\n"
        "def main(argv=None, *rest, **extra):\n"
        "    make((2,), 'last').scale(2)\n"
        "    return Grid((2,)).scale(fast=True)\n"
    )
    assert unpassed_defaults({"m.py": ast.parse(defaults)}) == [
        "m.py:2 Grid.__init__(spare)",
        "m.py:4 Grid.scale(slow)",
        "m.py:7 main(argv)",
    ]
    starred = defaults + "main(*())\nGrid((2,)).scale(**{})\n"
    assert unpassed_defaults({"m.py": ast.parse(starred)}) == ["m.py:2 Grid.__init__(spare)"]
    state = (
        "_held = _cache = None\n"
        "def oracle_rghw_support():\n    global _held, _cache\n"
        "class Search:\n    def run(self):\n        global _held\n"
        "def oracle_rghw_window():\n    def walk():\n        global _held\n"
    )
    modules = {"oracle.py": ast.parse(state), "m.py": ast.parse("def f():\n    global _held\n")}
    assert global_statements(modules) == [
        "oracle.py:3 oracle_rghw_support(_cache)",
        "oracle.py:6 Search.run(_held)",
        "oracle.py:9 walk(_held)",
        "m.py:2 f(_held)",
    ]
    errors = "class RghwError(Exception):\n    pass\nclass BudgetExceeded(RghwError):\n    pass\n"
    raising = (
        "class Refusal(RghwError):\n    pass\n"
        "class Late(Refusal):\n    pass\n"
        "class Plain(object):\n    pass\n"
        "def f(x):\n"
        "    if x:\n        raise ValueError(x)\n"
        "    if x is None:\n        raise Late\n"
        "    try:\n        return g(x)\n    except KeyError:\n        raise\n"
        "    raise RghwError(x) from None\n"
        "def main():\n    raise SystemExit(f(1))\n"
    )
    modules = {"errors.py": ast.parse(errors), "m.py": ast.parse(raising)}
    assert foreign_raises(modules) == ["m.py:9 ValueError", "m.py:11 Late", "m.py:15 raise"]
    assert exception_classes(modules) == ["m.py:1 Refusal", "m.py:3 Late"]
    frozen = (
        "class Shape:\n"
        "    def __init__(self, d):\n        object.__setattr__(self, 'd', d)\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n"
        "    class Inner:\n        def __setattr__(self, name, value):\n            pass\n"
    )
    assert setattr_overrides({"m.py": ast.parse(frozen)}) == [
        "m.py:4 Shape.__setattr__",
        "m.py:7 Inner.__setattr__",
        "m.py:3 object.__setattr__",
    ]

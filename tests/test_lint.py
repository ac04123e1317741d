"""Source hygiene that a linter would check.

No module imports a name it never uses, no private top-level function
of the package outlives its last caller in src/, and no field of
RunConfig outlives its last reader there.  numpy is the package's only
runtime dependency: a module in src/ imports numpy, its own package by
a relative import, or the standard library, and nothing else (scipy,
pytest and hypothesis are for the tests alone).  A DistanceMatrix is
distances, not a place to leave state: of its private fields, only
transport.root_basis writes into _root_bases, a cache of a function of
d alone, and concentration._transports into _density_starts; every
other warm start is passed as a value.  A tolerance has one default: no
tol parameter in src/ defaults to a number written at the parameter,
so each takes a named constant, certificates.DEFAULT_TOL or its own.
No np.errstate or np.seterr in src/ silences invalid, by its own
keyword or by all: pytest turns a RuntimeWarning into an error, and an
invalid warning is how a bound of inf * 0 or 0 / 0, a nan, shows in
the tests.  An lp.Start is built through its one check: only
Start.carried constructs one, so every start's inverse inverts its
basis exactly and no program that is not a flow reaches the pivot
loop.  LAPACK inverts a basis in one place: only
lp.Start.from_basis calls np.linalg.inv, and every other inverse is a
tree's path matrix or a product off a tableau.  A final basis becomes
a start one way: outside Start's own methods only
transport.root_basis calls Start.carried, and only
LpSolution.warm_start and ColumnStart.start call Start.from_final.
An LpSolution's private fields are lp's own: no other module in src/
reads or writes one, so the final basic values stay inside the solve.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "digricci").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads; a name in its __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def foreign_imports(source: str) -> list[str]:
    """The modules source imports, at any depth, that are not numpy, relative or standard."""
    allowed = {"numpy", *sys.stdlib_module_names}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {module}" for module in modules
                  if module.split(".")[0] not in allowed]
    return found


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """The private top-level functions of sources (by module name) that no other statement reads.

    A function counts as read where its name appears as a name or an
    attribute in any top-level statement of any module but its own def,
    so a helper that only calls itself is still unreferenced.
    """
    defined, read = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and statement.name.startswith("_")
                    and not statement.name.startswith("__")):
                defined.append((module, statement))
            read.append((statement, {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement) if isinstance(node, (ast.Name, ast.Attribute))
            }))
    return [
        f"{module}: {definition.name}"
        for module, definition in defined
        if not any(definition.name in names for statement, names in read
                   if statement is not definition)
    ]


def unread_config_fields(sources: dict[str, str]) -> list[str]:
    """The fields of class RunConfig in sources that no source reads as config.<field>."""
    fields, read = [], set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                fields += [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id == "config"):
                read.add(node.attr)
    return [name for name in fields if name not in read]


def literal_tol_defaults(source: str) -> list[str]:
    """The functions of source whose parameter tol defaults to a number literal, signed or not.

    Each is "line <def line>: <name>", a lambda's name "<lambda>"; a
    default that is a name, an attribute or a call is not a literal.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        defaults = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                    *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in defaults:
            if isinstance(default, ast.UnaryOp) and isinstance(default.op, (ast.UAdd, ast.USub)):
                default = default.operand
            if (arg.arg == "tol" and isinstance(default, ast.Constant)
                    and type(default.value) in (int, float)):
                found.append(f"line {node.lineno}: {getattr(node, 'name', '<lambda>')}")
    return found


def silenced_invalid_errstates(source: str) -> list[str]:
    """The errstate or seterr calls of source that set all, or invalid to other than warn or raise.

    Each is "line <call line>", in line order; a call counts by its name alone, so
    np.errstate, numpy.errstate and a bare errstate all count, and an
    invalid that is not a string constant counts as silenced.
    """
    def silences(keyword: ast.keyword) -> bool:
        loud = isinstance(keyword.value, ast.Constant) and keyword.value.value in ("warn", "raise")
        return keyword.arg == "all" or (keyword.arg == "invalid" and not loud)

    return [
        f"line {node.lineno}"
        for node in sorted(ast.walk(ast.parse(source)), key=lambda node: getattr(node, "lineno", 0))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] in ("errstate", "seterr")
        and any(silences(keyword) for keyword in node.keywords)
    ]


def scoped_calls(sources: dict[str, str], name: str) -> list[str]:
    """Each call of name in sources (by module name), as "module.scope", sorted.

    A call counts by the last part of its name, so for inv
    np.linalg.inv, numpy.linalg.inv and a bare inv all count and pinv
    does not; the scope is the dotted path of the classes and functions
    around the call, <module> for none.
    """
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == name:
                found.append(".".join(scope if scope[1:] else (*scope, "<module>")))
            visit(child, inner)

    for module, source in sources.items():
        visit(ast.parse(source), (module,))
    return sorted(found)


def start_constructions(sources: dict[str, str]) -> list[str]:
    """Where sources (by module name) construct a Start, as "module.scope", sorted.

    A construction is a call of Start by name anywhere (Start and
    lp.Start count, ColumnStart does not, as scoped_calls counts), or a
    call of cls in a method of lp's class Start; the scope is the
    dotted path of the classes and functions around it.
    """
    own = [scope for scope in scoped_calls({"lp": sources.get("lp", "")}, "cls")
           if scope.startswith("lp.Start.")]
    return sorted(scoped_calls(sources, "Start") + own)


def private_fields(source: str, name: str) -> set[str]:
    """The fields of class name in source whose names start with an underscore."""
    classes = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == name]
    return {item.target.id for node in classes for item in node.body
            if isinstance(item, ast.AnnAssign) and item.target.id.startswith("_")}


def private_field_writes(sources: dict[str, str], fields: set[str]) -> list[str]:
    """Where sources (by module name) write into one of fields, as "module.function: field", sorted.

    A write is an assignment or a del into x.<field>[...], in any form
    (plain, augmented, annotated or inside a tuple), or an
    object.__setattr__(x, name, value), whose name counts as any field
    unless it is a string constant.  The function is the top-level
    statement's name, <module> for a statement that has none.
    """
    found = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            scope = getattr(statement, "name", "<module>")
            for node in ast.walk(statement):
                if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                        and isinstance(node.value, ast.Attribute)):
                    names = {node.value.attr} & fields
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                    name = node.args[1] if len(node.args) > 1 else None
                    names = ({name.value} & fields if isinstance(name, ast.Constant)
                             else fields)
                else:
                    continue
                found.update(f"{module}.{scope}: {field}" for field in names)
    return sorted(found)


def attribute_uses(sources: dict[str, str], names: set[str]) -> list[str]:
    """Where sources (by module name) use an attribute in names, as "module.scope: name", sorted.

    A use is any x.<name>, read, written or deleted; a bare name is not
    an attribute.  The scope is the top-level statement's name,
    <module> for a statement that has none.
    """
    return sorted({
        f"{module}.{getattr(statement, 'name', '<module>')}: {node.attr}"
        for module, source in sources.items()
        for statement in ast.parse(source).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr in names
    })


def test_attribute_uses_are_found():
    sources = {
        "a": "def f(s):\n    return s._basic + s.rows + s._other\n\n\nX = g()._basic\n",
        "b": "class C:\n    def h(self, s):\n        s._basic = _basic\n        del s._other\n",
    }
    assert attribute_uses(sources, {"_basic", "_other"}) == [
        "a.<module>: _basic", "a.f: _basic", "a.f: _other", "b.C: _basic", "b.C: _other",
    ]


def test_only_lp_uses_a_private_field_of_a_solution():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    fields = private_fields(sources.pop("lp"), "LpSolution")
    assert fields == {"_basic"}
    assert attribute_uses(sources, fields) == []


def test_private_field_writes_are_found():
    assert private_fields("class D:\n    d: int\n    _cache: dict\n    _other: dict\n"
                          "class E:\n    _own: dict\n", "D") == {"_cache", "_other"}
    sources = {
        "a": "def f(dm, H, k):\n    dm._cache[k] = 1\n    dm._cache[k] += 1\n"
             "    x, dm._other[k] = 1, 2\n    H._kernels[k] = 0\n    dm.d[k] = 0\n"
             "    return dm._cache[k]\n\n\ndef g(dm, k):\n    del dm._cache[k]\n",
        "b": "object.__setattr__(dm, '_cache', {})\nobject.__setattr__(dm, 'd', None)\n"
             "def h(dm, name):\n    object.__setattr__(dm, name, None)\n",
    }
    assert private_field_writes(sources, {"_cache", "_other"}) == [
        "a.f: _cache", "a.f: _other", "a.g: _cache", "b.<module>: _cache",
        "b.h: _cache", "b.h: _other",
    ]


def test_only_the_two_caches_write_into_a_distance_matrix():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    fields = private_fields(sources["digraph"], "DistanceMatrix")
    assert fields == {"_root_bases", "_density_starts"}
    assert private_field_writes(sources, fields) == [
        "concentration._transports: _density_starts", "transport.root_basis: _root_bases",
    ]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nfrom f import g\n"
    source += "__all__ = ['g']\nprint(np.pi, c)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: e"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def test_foreign_imports_are_found():
    source = "from __future__ import annotations\nimport os.path, scipy.linalg\n"
    source += "import numpy as np\nfrom numpy.linalg import norm\nfrom . import lp\n"
    source += "from .chain import mean\nfrom collections import abc\nfrom pytest import raises\n"
    source += "def f():\n    import hypothesis\n"
    assert foreign_imports(source) == [
        "line 2: scipy.linalg", "line 8: pytest", "line 10: hypothesis"
    ]


def test_numpy_is_the_only_runtime_dependency():
    found = {path.relative_to(ROOT).as_posix(): foreign_imports(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    assert {path: modules for path, modules in found.items() if modules} == {}


def test_unreferenced_private_functions_are_found():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _dead(k):\n    return _dead(k - 1)\n\n\n"
             "def __getattr__(name):\n    pass\n\n\ndef _by_attribute():\n    pass\n\n\n"
             "def public():\n    return _used()\n",
        "b": "import a\n\nVALUE = a._by_attribute()\n",
    }
    assert unreferenced_private_functions(sources) == ["a: _dead"]


def test_no_private_function_outlives_its_callers():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_private_functions(sources) == []


def test_unread_config_fields_are_found():
    sources = {
        "report": "class RunConfig:\n    seed: int = 1\n    dead: int = 2\n    other: int = 3\n",
        "cli": "def run(config, spec):\n    config.dead = 0\n    return config.seed, spec.other\n",
    }
    assert unread_config_fields(sources) == ["dead", "other"]


def test_every_run_config_field_has_a_reader():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_config_fields(sources) == []


def test_literal_tol_defaults_are_found():
    source = "\n".join([
        "def f(x, tol=1e-9):",
        "    pass",
        "def g(x, /, tol=-1, *, other=2.0):",
        "    pass",
        "def h(x, tol=DEFAULT_TOL, eps=1e-3, *, rtol=0.5):",
        "    pass",
        "class C:",
        "    def m(self, *, tol: float = +0.0):",
        "        pass",
        "    def n(self, tol=lp.GAP_TOL, flag=True):",
        "        pass",
        "k = lambda tol=2: tol",
        "b = lambda tol=True: tol",
        "def late(a, b=1, tol=None):",
        "    pass",
    ])
    assert literal_tol_defaults(source) == [
        "line 1: f", "line 3: g", "line 8: m", "line 12: <lambda>",
    ]


def test_every_tol_default_is_a_named_constant():
    found = {path.name: literal_tol_defaults(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert {name: functions for name, functions in found.items() if functions} == {}


def test_silenced_invalid_errstates_are_found():
    source = "\n".join([
        "with np.errstate(divide='ignore', over='ignore'):",
        "    pass",
        "with np.errstate(invalid='ignore'):",
        "    pass",
        "with numpy.errstate(all='ignore'):",
        "    pass",
        "with errstate(over='ignore', invalid=mode):",
        "    pass",
        "with np.errstate(invalid='raise'), np.errstate(invalid='warn'):",
        "    pass",
        "np.seterr(invalid='ignore')",
    ])
    assert silenced_invalid_errstates(source) == ["line 3", "line 5", "line 7", "line 11"]


def test_no_errstate_silences_invalid():
    found = {path.name: silenced_invalid_errstates(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_start_constructions_are_found():
    sources = {
        "lp": "class Start:\n    @classmethod\n    def carried(cls):\n        return cls(0)\n\n"
              "    def stack(self):\n        return [Start(1)]\n\n\n"
              "class Other:\n    @classmethod\n    def make(cls):\n        return cls(2)\n",
        "a": "from . import lp\n\n\ndef f():\n    return lp.Start(0), lp.ColumnStart(1)\n\n\n"
             "def g():\n    return lp.Start.from_basis(0)\n\n\nSTART = lp.Start(2)\n",
    }
    assert start_constructions(sources) == [
        "a.<module>", "a.f", "lp.Start.carried", "lp.Start.stack",
    ]


def test_only_carried_constructs_a_start():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert start_constructions(sources) == ["lp.Start.carried"]


def test_inverse_calls_are_found():
    sources = {
        "lp": "import numpy as np\n\n\nclass Start:\n    @classmethod\n"
              "    def from_basis(cls, A):\n        return np.linalg.inv(A)\n\n"
              "    def other(self):\n        return np.linalg.pinv(self.A)\n",
        "a": "import numpy\nfrom numpy.linalg import inv\n\n\ndef f(B):\n    def g():\n"
             "        return inv(B)\n\n    return g, numpy.linalg.inv(B)\n\n\nX = inv(2)\n",
    }
    assert scoped_calls(sources, "inv") == ["a.<module>", "a.f", "a.f.g", "lp.Start.from_basis"]


def test_only_from_basis_calls_a_lapack_inverse():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert scoped_calls(sources, "inv") == ["lp.Start.from_basis"]


def test_start_routes_are_found():
    sources = {
        "lp": "class Start:\n    @classmethod\n    def from_final(cls, p, b, r):\n"
              "        return cls.carried(p, b, r)\n\n\nclass LpSolution:\n"
              "    def warm_start(self):\n        return Start.from_final(self, 0, 1)\n",
        "a": "from . import lp\n\n\ndef root_basis(dm):\n    return lp.Start.carried(dm)\n\n\n"
             "class C:\n    def start(self):\n        return lp.Start.from_final(self, 0, 1)\n\n\n"
             "X = lp.Start.carried(2), carried(3), lp.Start.carried_on(4)\n",
    }
    assert scoped_calls(sources, "carried") == [
        "a.<module>", "a.<module>", "a.root_basis", "lp.Start.from_final",
    ]
    assert scoped_calls(sources, "from_final") == ["a.C.start", "lp.LpSolution.warm_start"]


def test_a_final_basis_becomes_a_start_one_way():
    """Only root_basis calls carried outside Start; only two callers make a final basis a start.

    Start.carried is the one constructor that takes an inverse from its
    caller: Start's own methods (from_basis, from_final) and
    transport.root_basis, whose tree inverse is a walk, call it, and
    nothing else.  Start.from_final is the one route from a final basis
    to a start, and a warm start (LpSolution.warm_start) and a column's
    first start (transport.ColumnStart.start) are its only callers.
    """
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    carried = [scope for scope in scoped_calls(sources, "carried")
               if not scope.startswith("lp.Start.")]
    assert carried == ["transport.root_basis"]
    assert scoped_calls(sources, "from_final") == [
        "lp.LpSolution.warm_start", "transport.ColumnStart.start",
    ]

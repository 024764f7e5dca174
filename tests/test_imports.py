"""Static checks on the library's names.

Every name a library module imports is used in that module, checked on
the syntax trees of ``src/sylowlab/*.py``, so an import left behind by a
refactor fails the suite.  ``__init__.py`` is left out: its imports are
the package's re-exports.  The modules follow one layer order
(``LAYERS``): each imports, at its top, only the modules before it.
Only the function-level imports in ``LOCAL_IMPORTS`` remain, each one
kept for the reason given there.  No function takes a ``cap``
parameter: each size limit is read from ``config`` where a size is
refused.  ``NotASubgroup`` is raised in ``group.check_subgroup`` alone,
and no ``CheckReport`` names its check, which only the command line
writes.  And every library name the README cites as ``module.name``
or ``Class.attr`` resolves.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sylowlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sylowlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# the layer order, lowest first: a module's top-level imports name only
# the modules before it
LAYERS = ("errors", "config", "perm", "gf", "reports", "setcover", "cliques",
          "group", "tables", "lattice", "sylow", "actions", "covering",
          "graphs", "catalog", "cli")

# the function-level imports left, as module.function, with the reason
LOCAL_IMPORTS = {
    "group.p_residual": "sylow and tables import group; no library route "
                        "calls p_residual, but the tests use it as an "
                        "oracle and the bench tracer's targets name it in group",
}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_modules_are_found():
    assert {"group.py", "sylow.py", "covering.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import CapExceeded, NotNormal as NN\n"
              "def f():\n"
              "    from .group import is_normal\n"
              "    return os.sep, CapExceeded\n")
    assert unused_imports(source) == ["NN", "is_normal"]


def later_imports(module: str, source: str) -> list[str]:
    """The modules that a top-level ``from .x import`` or ``from . import
    x`` of ``module``'s ``source`` names at or after ``module`` in
    ``LAYERS``."""
    later = LAYERS[LAYERS.index(module):]
    named = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            named.update([node.module] if node.module else (a.name for a in node.names))
    return sorted(named & set(later))


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_top_level_imports_follow_the_layer_order(path):
    assert later_imports(path.stem, path.read_text()) == []


def test_an_upward_import_is_caught():
    source = ("from __future__ import annotations\n"
              "from . import config, graphs\n"
              "from .group import PermGroup\n"
              "from .covering import sigma_p\n"
              "def f():\n"
              "    from .cli import main\n"
              "    return main\n")
    assert later_imports("sylow", source) == ["covering", "graphs"]
    assert later_imports("cli", source) == []


def local_imports(module: str, source: str) -> set[str]:
    """Each function of ``source`` whose body imports, as module.function."""
    return {f"{module}.{fn.name}" for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, (ast.Import, ast.ImportFrom))
                    for node in ast.walk(fn))}


def test_only_the_allowed_function_level_imports():
    found = set()
    for path in SRC.glob("*.py"):
        found |= local_imports(path.stem, path.read_text())
    assert found == set(LOCAL_IMPORTS)


def test_a_function_level_import_is_caught():
    source = ("import os\n"
              "def f():\n"
              "    from .group import is_normal\n"
              "    return is_normal\n"
              "def g():\n"
              "    return os.sep\n"
              "class C:\n"
              "    def h(self):\n"
              "        import math\n"
              "        return math.pi\n")
    assert local_imports("m", source) == {"m.f", "m.h"}


# the one parameter named cap left: the refused limit that the error carries
CAP_PARAMETERS = {"errors.CapExceeded.__init__"}


def cap_parameters(module: str, source: str) -> set[str]:
    """Each function of ``source`` with a parameter named ``cap``, as
    module.function, module.Class.method or module.outer.inner."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                if any(arg.arg == "cap" for arg in a.posonlyargs + a.args + a.kwonlyargs):
                    found.add(f"{prefix}.{name}")
            visit(child, f"{prefix}.{name}" if isinstance(name, str) else prefix)

    visit(ast.parse(source), module)
    return found


def test_no_function_takes_a_cap():
    found = set()
    for path in SRC.glob("*.py"):
        found |= cap_parameters(path.stem, path.read_text())
    assert found == CAP_PARAMETERS


def test_a_cap_parameter_is_caught():
    source = ("def f(G, cap=None):\n"
              "    return G\n"
              "def g(G, *, cap):\n"
              "    return G\n"
              "def h(G, limit, capped=False):\n"
              "    return G\n"
              "class C:\n"
              "    def m(self, p, cap: int | None = None):\n"
              "        def inner(cap):\n"
              "            return cap\n"
              "        return p\n")
    assert cap_parameters("m", source) == {"m.f", "m.g", "m.C.m", "m.C.m.inner"}


def calls_of(callee: str, module: str, source: str) -> list[tuple[str, ast.Call]]:
    """Each call of the bare name ``callee`` in ``source``, with the
    function that makes it, as module.function, module.Class.method or
    module.outer.inner (the module alone at its top level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == callee):
                found.append((where, child))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if inner else where)

    visit(ast.parse(source), module)
    return found


def subgroup_refusals(module: str, source: str) -> set[str]:
    """Where ``source`` builds a ``NotASubgroup`` error."""
    return {where for where, _ in calls_of("NotASubgroup", module, source)}


def named_reports(module: str, source: str) -> list[int]:
    """The lines of ``source`` whose ``CheckReport`` call passes a string
    constant first: a check id, which the command line alone writes."""
    return [call.lineno for _, call in calls_of("CheckReport", module, source)
            if call.args and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)]


def test_one_subgroup_refusal():
    found = set()
    for path in SRC.glob("*.py"):
        found |= subgroup_refusals(path.stem, path.read_text())
    assert found == {"group.check_subgroup"}


def test_a_second_subgroup_refusal_is_caught():
    source = ("def check_subgroup(H, G):\n"
              "    raise NotASubgroup('H is not a subgroup of G')\n"
              "class C:\n"
              "    def f(self, P):\n"
              "        if not is_subgroup(P, self.G):\n"
              "            raise NotASubgroup('P is not a subgroup of G')\n"
              "ERROR = NotASubgroup\n")
    assert subgroup_refusals("m", source) == {"m.check_subgroup", "m.C.f"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_report_names_its_check(path):
    assert named_reports(path.stem, path.read_text()) == []


def test_a_named_report_is_caught():
    source = ("def f(ok):\n"
              "    return CheckReport('sylow-monotone', ok, {})\n"
              "def g(ok, name):\n"
              "    return CheckReport(ok, {'name': name}), CheckReport(name == 'x')\n"
              "R = CheckReport(\n"
              "    'clique-edge-bound', True)\n")
    assert named_reports("m", source) == [2, 5]


def library_owners() -> dict:
    """Each sylowlab module, and each class defined in one, by name."""
    owners = {}
    for info in pkgutil.iter_modules(sylowlab.__path__):
        module = importlib.import_module(f"sylowlab.{info.name}")
        owners[info.name] = module
        owners.update((name, value) for name, value in vars(module).items()
                      if inspect.isclass(value) and value.__module__ == module.__name__)
    return owners


def unresolved_names(text: str, owners: dict) -> tuple[int, list[str]]:
    """How many backticked ``module.name`` or ``Class.attr`` spans (a
    call's arguments aside) of ``text`` start at one of ``owners``, and
    those of them that do not resolve."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", span)
        if m and m[1] in owners:
            names.add((m[1], m[2]))
    return len(names), sorted(f"{a}.{b}" for a, b in names if not hasattr(owners[a], b))


def test_readme_names_resolve():
    count, unresolved = unresolved_names((ROOT / "README.md").read_text(), library_owners())
    assert count >= 15 and unresolved == []


def test_a_stale_readme_name_is_caught():
    text = ("`covering.p_elements(G, p)`, `covering.sigma_p`, `_Chain.least`, "
            "`PermGroup._classes`, `x.cycle_string()`, `fractions.Fraction`")
    assert unresolved_names(text, library_owners()) == (
        4, ["PermGroup._classes", "covering.p_elements"])

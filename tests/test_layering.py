"""The package's modules import only downward.

The layers, lowest first: scalars < linalg < ncalg < hopf < koszul,
hochschild < duality < checks < cli (koszul and hochschild share a level and
import neither each other).  The one sanctioned exception are the cache
fills that ncalg's Context and AlgebraPreset import inside their methods:
the caches live on the algebra objects, their functions in the layers above.
No module but scalars reads the slots of RationalFunction.
"""

import ast
from pathlib import Path

import qsphere

LEVEL = {"scalars": 0, "linalg": 1, "ncalg": 2, "hopf": 3, "koszul": 4,
         "hochschild": 4, "duality": 5, "checks": 6, "cli": 7}

# (importing module, enclosing class, imported module)
CACHE_FILLS = {("ncalg", "AlgebraPreset", "hopf"), ("ncalg", "Context", "hopf"),
               ("ncalg", "Context", "koszul")}

SRC = Path(qsphere.__file__).parent


def _imports(tree):
    """(imported package module, enclosing class or None) for every import
    of a qsphere module in tree."""
    out = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:     # from . import x
                out.extend((a.name, cls) for a in node.names)
            elif node.level == 1:
                out.append((node.module.split(".")[0], cls))
            elif node.module and node.module.split(".")[0] == "qsphere":
                parts = node.module.split(".")
                names = parts[1:2] or [a.name for a in node.names]
                out.extend((n, cls) for n in names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "qsphere" and len(parts) > 1:
                    out.append((parts[1], cls))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def test_every_module_has_a_level():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LEVEL)


def test_no_module_imports_a_module_above_or_beside_it():
    upward = []
    seen_fills = set()
    for name, level in LEVEL.items():
        tree = ast.parse((SRC / f"{name}.py").read_text())
        for target, cls in _imports(tree):
            if LEVEL[target] < level:
                continue
            if (name, cls, target) in CACHE_FILLS:
                seen_fills.add((name, cls, target))
                continue
            upward.append(f"{name} ({cls or 'module'}) imports {target}")
    assert upward == []
    assert seen_fills == CACHE_FILLS    # the allowance lists no stale entry


def test_the_check_sees_an_upward_import():
    tree = ast.parse("def f():\n    from .duality import Functional\n"
                     "from qsphere import cli\nimport qsphere.checks\n")
    assert _imports(tree) == [("duality", None), ("cli", None),
                              ("checks", None)]
    tree = ast.parse("class Context:\n    def __init__(self):\n"
                     "        from .koszul import f\n")
    assert _imports(tree) == [("koszul", "Context")]


# RationalFunction's slots: _n holds an int in the packed form and _d its
# coefficient bound, so only scalars may read them
SCALAR_SLOTS = {"_e", "_n", "_d", "_hash"}


def _slot_reads(tree):
    """Names of RationalFunction slots that tree reads, as attributes or
    through getattr/setattr with a literal name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SCALAR_SLOTS:
            out.append(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in SCALAR_SLOTS):
            out.append(node.args[1].value)
    return out


def test_only_scalars_reads_the_scalar_slots():
    reads = {name: _slot_reads(ast.parse((SRC / f"{name}.py").read_text()))
             for name in LEVEL if name != "scalars"}
    assert {name: r for name, r in reads.items() if r} == {}
    assert set(_slot_reads(ast.parse((SRC / "scalars.py").read_text()))) \
        == SCALAR_SLOTS


def test_the_slot_check_sees_a_read():
    tree = ast.parse("def f(x):\n    return x._n, getattr(x, '_d'), x.num\n")
    assert _slot_reads(tree) == ["_n", "_d"]

"""The backend contract: every per-kind formula lives in ``backends/``.

Outside the backends, the generic layers reach a model only through its
public methods.  This test walks the syntax tree of every such module and
fails on a comparison against a backend kind string (a switch that a new
backend or subclass silently falls through), on a read of a private
attribute of an object other than ``self`` or ``cls``, or on an
``isinstance`` test against a self-dual cone flavour (each flavour supplies
its formulas as methods of the cone interface).
"""

import ast
from pathlib import Path

import jordantp
from jordantp.backends import REGISTRY

PACKAGE = Path(jordantp.__file__).parent
BACKEND_KINDS = frozenset(REGISTRY) | {"polytope_affine"}
CONE_FLAVOURS = frozenset({"SpectralSelfDualCone", "GeneratorSelfDualCone"})


def _generic_modules():
    return sorted(path for path in PACKAGE.rglob("*.py")
                  if "backends" not in path.relative_to(PACKAGE).parts)


def _kind_strings(node):
    """Backend kind strings among a comparison operand (or its elements)."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [item.value for item in items
            if isinstance(item, ast.Constant) and item.value in BACKEND_KINDS]


def contract_violations(source: str, filename: str = "<source>") -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                for kind in _kind_strings(operand):
                    hits.append((node.lineno, f"compares against kind {kind!r}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
            private = name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if private and not own:
                hits.append((node.lineno, f"reads private attribute {name!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            for sub in ast.walk(node.args[1]):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in CONE_FLAVOURS:
                    hits.append((node.lineno, f"switches on cone flavour {name!r}"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits, key=lambda h: h[0])]


def test_generic_layers_keep_the_backend_contract():
    modules = _generic_modules()
    assert len(modules) >= 10
    hits = []
    for path in modules:
        hits += contract_violations(path.read_text(), str(path.relative_to(PACKAGE)))
    assert hits == []


def test_guard_flags_both_kinds_of_violation():
    source = (
        "def f(model, state):\n"
        "    if model.kind in ('spin', 'lpq'):\n"
        "        return model._pnorm(state, 2.0)\n"
        "    if 'polytope_affine' == model.kind:\n"
        "        return self._n + cls._m + model.__class__.__name__\n"
        "    return state.kind == 'dual_vector'\n"
    )
    assert contract_violations(source) == [
        "<source>:2: compares against kind 'spin'",
        "<source>:2: compares against kind 'lpq'",
        "<source>:3: reads private attribute '_pnorm'",
        "<source>:4: compares against kind 'polytope_affine'",
    ]


def test_guard_flags_cone_flavour_switches():
    source = (
        "def f(cone, model, state):\n"
        "    if isinstance(cone, SpectralSelfDualCone) or isinstance(state, Element):\n"
        "        return isinstance(cone, (selfdual.GeneratorSelfDualCone, int))\n"
        "    if isinstance(cone, SpectralSelfDualCone | GeneratorSelfDualCone):\n"
        "        return SpectralSelfDualCone(model)\n"
        "    return isinstance(state, SelfDualCone)\n"
    )
    assert contract_violations(source) == [
        "<source>:2: switches on cone flavour 'SpectralSelfDualCone'",
        "<source>:3: switches on cone flavour 'GeneratorSelfDualCone'",
        "<source>:4: switches on cone flavour 'SpectralSelfDualCone'",
        "<source>:4: switches on cone flavour 'GeneratorSelfDualCone'",
    ]

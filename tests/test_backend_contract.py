"""The backend contract: every per-kind formula lives in ``backends/``.

Outside the backends, the generic layers reach a model only through its
public methods.  This test walks the syntax tree of every such module and
fails on a comparison against a backend kind string (a switch that a new
backend or subclass silently falls through), on a comparison between an
attribute and a string literal (a per-kind tag such as a representation
name, which a backend method should replace), on a read of a private
attribute of an object other than ``self`` or ``cls``, or on an
``isinstance`` test against ``AtomSpace``, ``Model``, ``SelfDualCone`` or
any subclass of them (each model and cone flavour supplies its formulas as
methods, so that one verifier serves them all).  The CLI is exempt from the string rule:
it compares parsed option values, not tags of a model.

A second walk, over every module but ``elements.py`` (the backends
included), keeps ``Element`` to its one checked constructor: it fails on
``Element.__new__``, on ``object.__new__(Element)`` and on an
``object.__setattr__`` that writes to anything but ``self`` or writes
``coords``.  Each of these would make an element whose coordinates were
never checked.

A third walk, over every module, keeps each spectral frame container to the
one module that builds it: ``SpectralForm(...)`` is called only in
``backends/base.py`` (from the arrays of ``decompose_coords``) and
``SpectralPair(...)`` only in ``elements.py`` (when a caller reads
``SpectralForm.pairs``), so a frame has one format everywhere else.  The
same walk keeps ``CheckResult(...)`` and ``skipped_check(...)`` to
``suites.py``, the one module that verifies (``reports.py`` builds the
skipped form): the state, transition-probability and cone layers only
compute.  A
walk of its own keeps the four public spectral entry points
(``decompose_coords``, ``eigenvalues_coords``, ``decompose_batch``,
``eigenvalues_batch``) to ``backends/base.py``: a backend supplies only the
stack kernels ``_frames`` and ``_eigenvalues``, so no backend keeps a second
kernel path.

A fourth walk, over every module, keeps scipy's LP solvers out of the
package: it fails on importing ``linprog`` or ``milp`` from scipy, on naming
either as an attribute of anything but ``convexgeom``, on importing a
private ``scipy.optimize._*`` module and on importing ``scipy.sparse``.  So
every LP is solved by the package's own ``convexgeom.linprog`` and shows in
the traced LP count.
Likewise scipy's ``nnls`` is named only inside ``selfdual.nonnegative_fit``,
the one NNLS seam, with one iteration budget and one residual.

A walk of its own keeps each model class and cone flavour to its stack
kernels: it fails on a subclass of ``AtomSpace`` (``Model``,
``SelfDualCone`` and theirs) that defines one of the one-row cases
``AtomSpace`` writes once (``atom_coords``, ``atom_param_from_coords``,
``state_value``, ``transition_from_params`` and the two per-element
samplers), on a subclass
of ``SelfDualCone`` that defines a per-element cone method (``inner``,
``cone_defect``, ``moreau``, ``frame``, ``complement_coords`` or
``split_orthogonal``), each of which ``SelfDualCone`` writes once as the
one-row case of its stack form, and on a loop or comprehension in
``AtomSpace`` or ``SelfDualCone`` itself.

A walk of its own keeps the rule that reads the atoms of a logic element
off its frame (the frame atoms of eigenvalue above 1/2) to its two homes:
over every module it fails on a comparison with the constant 0.5 as an
operand outside ``backends.base.logic_atoms`` (the stack form) and
``logic.atomic_decomposition`` (one element, which the reference loops of
the tests read atoms through).

A fifth walk, over every module, fails on a parameter that no concrete
definition of a function reads.  Definitions are grouped by name, so the
same-named methods of different classes (and the overrides of an abstract
method) count as one protocol: a parameter one of them reads is live in all.
A declaration whose body is only a docstring, ``raise``, ``pass`` or ``...``
counts as neither a read nor a definition.

A sixth walk, over every module, fails on a module-level import whose
name the module never reads and does not list in its ``__all__``, so a
move leaves no stale import behind.

The last tests pin the batch sampling kernels on every model family and both
cone flavours: row k of each equals the per-element kernel of row k bit for
bit, every generator is left where the per-element calls leave it, and a
stack with one unnormalised row raises the per-element error; likewise the
atom parameters read from a stack of atoms, where one row that is no atom
raises ``NotAtomError``.  On both cone
flavours, each per-element cone method equals row k of its stack form bit
for bit, and ``frames_and_parts`` equals ``frames`` and ``moreau_parts``.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import jordantp
from conftest import ALL_MODEL_SPECS
from jordantp import NotAtomError, UnnormalizedParamError, get_model
from jordantp.backends import REGISTRY
from jordantp.backends.base import AtomSpace, Model
from jordantp.selfdual import GeneratorSelfDualCone, SelfDualCone, SpectralSelfDualCone
from jordantp.spectral import SHAPES, STREAMS, _random_element, trial_rng
from test_selfdual import near_duplicate_orthant, rotated_orthant

PACKAGE = Path(jordantp.__file__).parent
BACKEND_KINDS = frozenset(REGISTRY) | {"polytope_affine"}
STRING_COMPARE_EXEMPT = frozenset({"cli.py"})


def _class_names(cls):
    return {cls.__name__}.union(*(_class_names(sub) for sub in cls.__subclasses__()))


# class name -> what an isinstance test against it switches on; the model
# classes include convexgeom's PolytopeAffineModel, so that module is loaded
# first: ``import jordantp`` loads no submodule
importlib.import_module("jordantp.convexgeom")
SPACE_CLASSES = {"AtomSpace": "atom space",
                 **dict.fromkeys(_class_names(Model), "model class"),
                 **dict.fromkeys(_class_names(SelfDualCone), "cone flavour")}


def _generic_modules():
    return sorted(path for path in PACKAGE.rglob("*.py")
                  if "backends" not in path.relative_to(PACKAGE).parts)


def _strings(node):
    """String literals among a comparison operand (or its elements)."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [item.value for item in items
            if isinstance(item, ast.Constant) and isinstance(item.value, str)]


def contract_violations(source: str, filename: str = "<source>") -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            strings = [text for operand in operands for text in _strings(operand)]
            kinds = [text for text in strings if text in BACKEND_KINDS]
            for kind in kinds:
                hits.append((node.lineno, f"compares against kind {kind!r}"))
            if (not kinds and strings and filename not in STRING_COMPARE_EXEMPT
                    and any(isinstance(operand, ast.Attribute) for operand in operands)):
                for text in strings:
                    hits.append((node.lineno, f"compares an attribute against {text!r}"))
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
                if name in SPACE_CLASSES:
                    hits.append((node.lineno, f"switches on {SPACE_CLASSES[name]} {name!r}"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits, key=lambda h: h[0])]


def _names_element(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "Element") or (
        isinstance(node, ast.Attribute) and node.attr == "Element")


def constructor_violations(source: str, filename: str = "<source>") -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and _names_element(node.value)):
            hits.append((node.lineno, "calls Element.__new__"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"):
            args = node.args
            if node.func.attr == "__new__" and args and _names_element(args[0]):
                hits.append((node.lineno, "calls object.__new__(Element)"))
            elif node.func.attr == "__setattr__":
                own = args and isinstance(args[0], ast.Name) and args[0].id == "self"
                coords = (len(args) > 1 and isinstance(args[1], ast.Constant)
                          and args[1].value == "coords")
                if not own or coords:
                    hits.append((node.lineno, "sets an attribute through object.__setattr__"))
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
        "<source>:6: compares an attribute against 'dual_vector'",
    ]


def test_guard_flags_attribute_string_switches():
    source = (
        "def f(model, state, args, name):\n"
        "    if model.state_kind == 'point_evaluation':\n"
        "        return state.point\n"
        "    if state.kind != other.kind or name == 'x':\n"
        "        return ('a', 'b') == state.tags\n"
        "    return args.format == 'json'\n"
    )
    assert contract_violations(source) == [
        "<source>:2: compares an attribute against 'point_evaluation'",
        "<source>:5: compares an attribute against 'a'",
        "<source>:5: compares an attribute against 'b'",
        "<source>:6: compares an attribute against 'json'",
    ]
    assert contract_violations(source, "cli.py") == []


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
        "<source>:6: switches on cone flavour 'SelfDualCone'",
    ]


def test_guard_flags_model_class_switches():
    source = (
        "def f(space, a):\n"
        "    if isinstance(space, Model) and not isinstance(a, Element):\n"
        "        return isinstance(space, (backends.SymMatrixModel, HermMatrixModel))\n"
        "    if isinstance(space, PolytopeAffineModel | LpQubitModel):\n"
        "        return ClassicalModel(3)\n"
        "    if isinstance(space, base.AtomSpace):\n"
        "        return a\n"
        "    return isinstance(space, dict)\n"
    )
    assert contract_violations(source) == [
        "<source>:2: switches on model class 'Model'",
        "<source>:3: switches on model class 'SymMatrixModel'",
        "<source>:3: switches on model class 'HermMatrixModel'",
        "<source>:4: switches on model class 'PolytopeAffineModel'",
        "<source>:4: switches on model class 'LpQubitModel'",
        "<source>:6: switches on atom space 'AtomSpace'",
    ]


def test_elements_have_one_checked_constructor():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "elements.py")
    assert any("backends" in path.parts for path in modules)
    hits = []
    for path in modules:
        hits += constructor_violations(path.read_text(), str(path.relative_to(PACKAGE)))
    assert hits == []


def test_guard_flags_unchecked_element_construction():
    source = (
        "def f(model, coords, a):\n"
        "    fast = Element.__new__(Element)\n"
        "    raw = object.__new__(elements.Element)\n"
        "    object.__setattr__(raw, 'coords', coords)\n"
        "    object.__setattr__(a, 'model', model)\n"
        "    object.__setattr__(self, 'coords', coords)\n"
        "    object.__setattr__(self, 'matrix', coords)\n"
        "    return object.__new__(Tolerance), Element(coords, model)\n"
    )
    assert constructor_violations(source) == [
        "<source>:2: calls Element.__new__",
        "<source>:3: calls object.__new__(Element)",
        "<source>:4: sets an attribute through object.__setattr__",
        "<source>:5: sets an attribute through object.__setattr__",
        "<source>:6: sets an attribute through object.__setattr__",
    ]


# frame container or check result -> the modules (relative to the package)
# that call it: check results are built where the checks run, and
# ``reports.py`` builds the skipped form that ``skipped_check`` returns
CALLERS = {"SpectralForm": {"backends/base.py"}, "SpectralPair": {"elements.py"},
           "CheckResult": {"suites.py", "reports.py"}, "skipped_check": {"suites.py"}}


def caller_violations(source: str, filename: str = "<source>") -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CALLERS and filename not in CALLERS[name]:
                hits.append(f"{filename}:{node.lineno}: constructs {name}")
    return hits


def test_frames_and_check_results_are_built_in_their_own_modules():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += caller_violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_frames_built_elsewhere():
    source = (
        "def f(model, values, atoms):\n"
        "    form = SpectralForm(values, atoms, model)\n"
        "    pair = elements.SpectralPair(1.0, model.zero())\n"
        "    return form, pair, SpectralFormat(values)\n"
    )
    assert caller_violations(source, "logic.py") == [
        "logic.py:2: constructs SpectralForm", "logic.py:3: constructs SpectralPair"]
    assert caller_violations(source, "backends/base.py") == [
        "backends/base.py:3: constructs SpectralPair"]
    assert caller_violations(source, "elements.py") == ["elements.py:2: constructs SpectralForm"]


def test_guard_flags_check_results_built_elsewhere():
    source = (
        "def verify(model, defect, tol):\n"
        "    checks = [CheckResult(\"x.defect\", defect, tol)]\n"
        "    checks.append(reports.skipped_check(\"x.other\", \"no reason\"))\n"
        "    return checks + [CheckResults(defect)]\n"
    )
    assert caller_violations(source, "transition.py") == [
        "transition.py:2: constructs CheckResult", "transition.py:3: constructs skipped_check"]
    assert caller_violations(source, "reports.py") == ["reports.py:3: constructs skipped_check"]
    assert caller_violations(source, "suites.py") == []


# the spectral entry points, written once in backends/base.py on the two
# stack kernels (``_frames``, ``_eigenvalues``) that each backend supplies
SPECTRAL_ENTRY_POINTS = frozenset(
    {"decompose_coords", "eigenvalues_coords", "decompose_batch", "eigenvalues_batch"})


def kernel_violations(source: str, filename: str = "<source>") -> list[str]:
    if filename == "backends/base.py":
        return []
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        hits += [(node.lineno, name) for name in names if name in SPECTRAL_ENTRY_POINTS]
    return [f"{filename}:{line}: defines {name}" for line, name in sorted(hits)]


def test_each_backend_writes_its_spectral_kernel_once():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += kernel_violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_a_second_spectral_kernel():
    source = (
        "class M(Model):\n"
        "    def decompose_coords(self, coords, tol):\n"
        "        return self._frames(coords[None], tol)\n"
        "    eigenvalues_batch = _eigenvalues\n"
        "    def _eigenvalues(self, stack, tol):\n"
        "        return stack\n"
        "def eigenvalues_coords(model, coords, tol):\n"
        "    return model.eigenvalues_coords(coords, tol)\n"
    )
    assert kernel_violations(source, "backends/spin.py") == [
        "backends/spin.py:2: defines decompose_coords",
        "backends/spin.py:4: defines eigenvalues_batch",
        "backends/spin.py:7: defines eigenvalues_coords",
    ]
    assert kernel_violations(source, "backends/base.py") == []


# the per-element cone methods: each is the one-row case of its stack form,
# written once in ``SelfDualCone``, which keeps no per-row loop of its own;
# likewise the one-row cases of the atom kernels, written once in ``AtomSpace``
PER_ELEMENT_CONE_METHODS = frozenset({
    "inner", "cone_defect", "moreau", "frame", "complement_coords", "split_orthogonal",
    "random_element", "random_positive"})
ATOM_SPACE_ONE_ROW = frozenset({
    "atom_coords", "atom_param_from_coords", "random_atom_param", "random_frame_params",
    "state_value", "transition_from_params"})
CONE_CLASSES = frozenset(_class_names(SelfDualCone))
ATOM_SPACE_CLASSES = frozenset(_class_names(AtomSpace))
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def cone_violations(source: str, filename: str = "<source>") -> list[str]:
    hits = []
    for cls in ast.walk(ast.parse(source, filename)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if cls.name in ("AtomSpace", "SelfDualCone"):
            hits += [(node.lineno, f"{cls.name} loops over rows")
                     for node in ast.walk(cls) if isinstance(node, LOOPS)]
        bases = {getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases}
        if not bases & ATOM_SPACE_CLASSES:
            continue
        forbidden = ATOM_SPACE_ONE_ROW | (PER_ELEMENT_CONE_METHODS if bases & CONE_CLASSES else set())
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            hits += [(node.lineno, f"{cls.name} defines {name}")
                     for name in names if name in forbidden]
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits)]


def test_cone_flavours_write_only_stack_kernels():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += cone_violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_per_element_cone_methods_and_row_loops():
    source = (
        "class SelfDualCone:\n"
        "    def inners(self, xs, ys):\n"
        "        return [self.inner(x, y) for x, y in zip(xs, ys)]\n"
        "class Cone(selfdual.SpectralSelfDualCone):\n"
        "    def frame(self, x, tol):\n"
        "        return x\n"
        "    moreau = frame\n"
        "    def frames(self, stack, tol):\n"
        "        return stack\n"
        "class Other(Model):\n"
        "    def inner(self, x, y):\n"
        "        return x\n"
        "    def state_value(self, param, coords):\n"
        "        return coords\n"
        "class AtomSpace(ABC):\n"
        "    def atom_coords(self, param):\n"
        "        return [self.atom_coords_batch(p) for p in param]\n"
        "class SelfDualCone(AtomSpace):\n"
        "    transition_from_params = AtomSpace.state_value\n"
        "class Spin(_QubitModel):\n"
        "    def random_frame_params(self, rng):\n"
        "        return rng\n"
    )
    assert cone_violations(source, "selfdual.py") == [
        "selfdual.py:3: SelfDualCone loops over rows",
        "selfdual.py:5: Cone defines frame",
        "selfdual.py:7: Cone defines moreau",
        "selfdual.py:13: Other defines state_value",
        "selfdual.py:17: AtomSpace loops over rows",
        "selfdual.py:19: SelfDualCone defines transition_from_params",
        "selfdual.py:21: Spin defines random_frame_params",
    ]


# scipy's LP solvers: the package names none of them and imports no
# scipy.sparse, so every LP is convexgeom.linprog's own and shows in the
# traced LP count
LP_SOLVERS = frozenset({"linprog", "milp"})


def _body_nodes(tree, name: str) -> set:
    """The ids of the nodes of the module-level function ``name``."""
    return {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == name
            for node in ast.walk(fn)}


def lp_solver_violations(source: str, filename: str = "<source>") -> list[str]:
    tree = ast.parse(source, filename)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            if node.module.startswith("scipy.optimize._"):
                hits.append((node.lineno, f"imports the private module {node.module}"))
            if node.module.startswith("scipy.sparse") or (
                    node.module == "scipy" and any(a.name == "sparse" for a in node.names)):
                hits.append((node.lineno, "imports scipy.sparse"))
            hits += [(node.lineno, f"imports scipy's {alias.name}") for alias in node.names
                     if alias.name in LP_SOLVERS | {"*"}]
        elif isinstance(node, ast.Import):
            hits += [(node.lineno, f"imports the private module {alias.name}")
                     for alias in node.names if alias.name.startswith("scipy.optimize._")]
            hits += [(node.lineno, "imports scipy.sparse")
                     for alias in node.names if alias.name.startswith("scipy.sparse")]
        elif (isinstance(node, ast.Attribute) and node.attr in LP_SOLVERS
              and not (isinstance(node.value, ast.Name) and node.value.id == "convexgeom")):
            hits.append((node.lineno, f"names .{node.attr}"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(hits)]


def test_the_package_names_no_scipy_lp_solver():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += lp_solver_violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_a_scipy_lp_solver_anywhere():
    source = (
        "from scipy.optimize import linprog, nnls\n"
        "from scipy import optimize as opt\n"
        "from scipy.optimize._milp import milp as solve\n"
        "def f(c, a):\n"
        "    return opt.milp(c), scipy.optimize.linprog(c), convexgeom.linprog(c), nnls(a, c)\n"
        "def linprog(*args):\n"
        "    from scipy.optimize import milp\n"
        "    return milp(*args)\n"
        "def _hull_distances(c, blocks):\n"
        "    import scipy.sparse\n"
        "    from scipy.sparse import csc_array\n"
        "    from scipy import sparse\n"
        "    return linprog(c, csc_array(blocks))\n"
    )
    planted = [
        "1: imports scipy's linprog",
        "3: imports scipy's milp",
        "3: imports the private module scipy.optimize._milp",
        "5: names .linprog",
        "5: names .milp",
        "7: imports scipy's milp",
        "10: imports scipy.sparse",
        "11: imports scipy.sparse",
        "12: imports scipy.sparse",
    ]
    for filename in ("selfdual.py", "convexgeom.py"):
        assert lp_solver_violations(source, filename) == [f"{filename}:{hit}" for hit in planted]
    assert lp_solver_violations("import scipy.optimize._linprog_highs\n") == [
        "<source>:1: imports the private module scipy.optimize._linprog_highs"]


# scipy's NNLS: the package names it only inside selfdual.nonnegative_fit, the
# one seam every nonnegative fit goes through, with one iteration budget
NNLS_SEAM = "nonnegative_fit"


def nnls_violations(source: str, filename: str = "<source>") -> list[str]:
    tree = ast.parse(source, filename)
    seam = _body_nodes(tree, NNLS_SEAM) if filename == "selfdual.py" else set()
    hits = []
    for node in ast.walk(tree):
        if id(node) in seam:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hits += [(node.lineno, "imports nnls") for alias in node.names
                     if "nnls" in (alias.name, alias.asname)]
        elif ((isinstance(node, ast.Name) and node.id == "nnls")
              or (isinstance(node, ast.Attribute) and node.attr == "nnls")):
            hits.append((node.lineno, "names nnls"))
    return [f"{filename}:{line}: {what} outside {NNLS_SEAM}" for line, what in sorted(hits)]


def test_scipy_nnls_is_named_only_in_selfdual_nonnegative_fit():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += nnls_violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_a_second_nnls_call_site():
    source = (
        "from scipy.optimize import nnls\n"
        "from scipy.optimize import nnls as fit\n"
        "def f(a, b):\n"
        "    return scipy.optimize.nnls(a, b), nnls(a, b), fit(a, b)\n"
        "def nonnegative_fit(matrix, target):\n"
        "    import scipy.optimize\n"
        "    return scipy.optimize.nnls(matrix, target)\n"
        "class Cone:\n"
        "    def nonnegative_fit(self, target):\n"
        "        return scipy.optimize.nnls(self.generators.T, target)\n"
    )
    planted = ["1: imports nnls", "2: imports nnls", "4: names nnls", "4: names nnls"]
    assert nnls_violations(source, "selfdual.py") == [
        f"selfdual.py:{hit} outside nonnegative_fit" for hit in [*planted, "10: names nnls"]]
    # the seam is selfdual's module-level function, not one of that name elsewhere
    assert nnls_violations(source, "suites.py") == [
        f"suites.py:{hit} outside nonnegative_fit"
        for hit in [*planted, "7: names nnls", "10: names nnls"]]


# a trial's named streams (``spectral.STREAMS``): each is drawn at one place,
# so every later draw of a trial has a place fixed by its name alone.  A
# place is a call of a stream drawer naming its stream as a literal (none
# named is stream ""), or a stage of ``_STAGES``, whose streams
# ``DrawRecord._extend`` draws; only it and ``trial_rngs``, which passes its
# stream on, draw a stream that is not a literal
STREAM_DRAWERS = frozenset({"trial_rng", "trial_rngs"})
PASSES_STREAMS_ON = ("_extend", "trial_rngs")


def stream_draws(source: str, filename: str = "<source>") -> list[tuple]:
    """``(stream, place)`` for each place of ``source`` that draws a trial
    stream, in line order, with the stream None where it is not a literal and
    the place is not one that passes streams on."""
    tree = ast.parse(source, filename)
    passing = set()
    if filename == "spectral.py":
        passing = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   and fn.name in PASSES_STREAMS_ON for node in ast.walk(fn)}
    draws = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_STAGES" for t in node.targets)):
            draws += [(key.lineno, stage.elts[0].value)
                      for key, stage in zip(node.value.keys, node.value.values)]
        elif isinstance(node, ast.Call) and (
                node.func.id if isinstance(node.func, ast.Name)
                else getattr(node.func, "attr", None)) in STREAM_DRAWERS:
            given = node.args[2:] + [kw.value for kw in node.keywords if kw.arg == "stream"]
            stream = given[0] if given else ast.Constant("")
            if isinstance(stream, ast.Constant) and isinstance(stream.value, str):
                draws.append((node.lineno, stream.value))
            elif id(node) not in passing:
                draws.append((node.lineno, None))
    return [(stream, f"{filename}:{line}")
            for line, stream in sorted(draws, key=lambda draw: (draw[0], draw[1] or ""))]


def stream_violations(draws: list[tuple]) -> list[str]:
    """A stream that is not a literal, a name not in ``STREAMS``, and a
    named stream drawn at more than one place."""
    places: dict = {}
    for stream, place in draws:
        places.setdefault(stream, []).append(place)
    hits = [f"{place}: draws a stream that is not a literal" for place in places.pop(None, [])]
    for stream, at in places.items():
        if stream not in STREAMS:
            hits.append(f"{', '.join(at)}: draw the unknown stream {stream!r}")
        elif stream and len(at) > 1:
            hits.append(f"{', '.join(at)}: draw the stream {stream!r}")
    return hits


def test_each_named_stream_is_drawn_at_one_place():
    draws = []
    for path in sorted(PACKAGE.rglob("*.py")):
        draws += stream_draws(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert stream_violations(draws) == []
    assert {stream for stream, _ in draws} == set(STREAMS)  # every stream is drawn


def test_guard_flags_a_stream_drawn_twice():
    source = (
        "def f(seed, k, name):\n"
        "    a = trial_rng(seed, k, 'junk')\n"
        "    b = spectral.trial_rngs(seed, 4, stream='junk')\n"
        "    c = trial_rngs(seed, range(0, 8, 2)), trial_rng(seed, k, '')\n"
        "    return trial_rngs(seed, k, name), trial_rng(seed, k, 'spare')\n"
        "_STAGES = {'b': ('b', draw),\n"
        "           'a': ('', draw)}\n"
        "def trial_rngs(seed, trials, stream):\n"
        "    return [trial_rng(seed, k, stream) for k in range(trials)]\n"
    )
    draws = stream_draws(source, "suites.py")
    assert draws == [("junk", "suites.py:2"), ("junk", "suites.py:3"), ("", "suites.py:4"),
                     ("", "suites.py:4"), (None, "suites.py:5"), ("spare", "suites.py:5"),
                     ("b", "suites.py:6"), ("", "suites.py:7"), (None, "suites.py:9")]
    assert stream_violations(draws) == [
        "suites.py:5: draws a stream that is not a literal",
        "suites.py:9: draws a stream that is not a literal",
        "suites.py:2, suites.py:3: draw the stream 'junk'",
        "suites.py:5: draw the unknown stream 'spare'"]
    # in spectral.py, the generator list passes its stream on; a stage's
    # stream counts as a place
    assert stream_violations(stream_draws(source.replace("'junk'", "'b'", 1), "spectral.py")) \
        == ["spectral.py:5: draws a stream that is not a literal",
            "spectral.py:2, spectral.py:6: draw the stream 'b'",
            "spectral.py:5: draw the unknown stream 'spare'"]


# the atoms of a logic element are its frame atoms of eigenvalue above 1/2:
# on stacks the rule lives in ``backends.base.logic_atoms``, and for one
# element in ``logic.atomic_decomposition``, which the reference loops in the
# tests read atoms through, so it stays independent of the stack helper
HALF_RULE_HOMES = {"backends/base.py": "logic_atoms", "logic.py": "atomic_decomposition"}


def half_rule_violations(source: str, filename: str = "<source>") -> list[str]:
    """Each comparison with the constant 0.5 as an operand outside the two
    homes of the logic-atom rule."""
    tree = ast.parse(source, filename)
    home = _body_nodes(tree, HALF_RULE_HOMES[filename]) if filename in HALF_RULE_HOMES else set()
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare) and id(node) not in home
                   and any(isinstance(operand, ast.Constant) and operand.value == 0.5
                           for operand in (node.left, *node.comparators)))
    return [f"{filename}:{line}: compares against 0.5 outside the logic-atom rule"
            for line in lines]


def test_the_logic_atom_rule_has_one_home_per_form():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += half_rule_violations(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_a_copied_logic_atom_rule():
    source = (
        "def logic_atoms(values, atoms):\n"
        "    return [frame[row > 0.5] for row, frame in zip(values, atoms)]\n"
        "def atomic_decomposition(model, p, tol):\n"
        "    return form.atom_coords[form.eigenvalues > 0.5]\n"
        "def capacity(values, frames):\n"
        "    top = [frame[0.5 < row] for row, frame in zip(values, frames)]\n"
        "    return top, np.abs(frames[:, 0] - 0.5) > 1e-7\n"
        "class Model:\n"
        "    def logic_atoms(self, values):\n"
        "        return values >= 0.5\n"
    )
    planted = ["6", "10"]
    assert half_rule_violations(source, "backends/base.py") == [
        f"backends/base.py:{line}: compares against 0.5 outside the logic-atom rule"
        for line in ["4", *planted]]
    assert half_rule_violations(source, "logic.py") == [
        f"logic.py:{line}: compares against 0.5 outside the logic-atom rule"
        for line in ["2", *planted]]
    assert len(half_rule_violations(source, "suites.py")) == 4


def _is_declaration(fn) -> bool:
    """A body of only a docstring, ``raise``, ``pass`` or ``...``."""
    return all(isinstance(stmt, (ast.Raise, ast.Pass)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in fn.body)


def dead_parameters(sources: dict[str, str]) -> list[str]:
    """``name(param)`` for each parameter no concrete definition reads."""
    params: dict[str, set] = {}
    read: dict[str, set] = {}
    for filename, source in sources.items():
        for fn in ast.walk(ast.parse(source, filename)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_declaration(fn):
                continue
            args = fn.args
            names = {arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg] if arg is not None}
            params.setdefault(fn.name, set()).update(names - {"self", "cls"})
            read.setdefault(fn.name, set()).update(
                node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return sorted(f"{name}({param})" for name, names in params.items()
                  for param in names - read[name])


def test_no_parameter_is_dead():
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert len(sources) >= 15
    assert dead_parameters(sources) == []


def test_guard_flags_dead_parameters():
    source = (
        "class Base:\n"
        "    def kernel(self, coords, tol):\n"
        "        \"Declared only.\"\n"
        "    def probe(self, x, hint):\n"
        "        raise NotImplementedError\n"
        "class A(Base):\n"
        "    def kernel(self, coords, tol):\n"
        "        return coords * tol\n"
        "    def probe(self, x, hint):\n"
        "        return x\n"
        "class B(Base):\n"
        "    def kernel(self, coords, tol):\n"
        "        return coords\n"
        "def forward(model, coords, tol, *rest, **opts):\n"
        "    return model.kernel(coords, tol) + len(opts)\n"
        "def closure(scale, unused):\n"
        "    return lambda v: v * scale\n"
        "def stub(a):\n"
        "    ...\n"
    )
    assert dead_parameters({"<source>": source}) == [
        "closure(unused)", "forward(rest)", "probe(hint)"]


def _exported(tree) -> set:
    """The names a module lists in a literal ``__all__``."""
    return {name for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for name in _strings(stmt.value)}


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """Each module-level import whose name the module neither reads nor
    lists in ``__all__``."""
    tree = ast.parse(source, filename)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    live = read | _exported(tree)
    hits = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in live:
                    hits.append(f"{filename}:{stmt.lineno}: imports {bound} unused")
    return hits


def test_no_module_level_import_is_unused():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += unused_imports(path.read_text(), path.relative_to(PACKAGE).as_posix())
    assert hits == []


def test_guard_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import scipy.optimize\n"
        "from .base import Model, Tolerance as Tol, row_norms\n"
        "__all__ = [\"Model\"]\n"
        "def f(x: Tol):\n"
        "    import json\n"
        "    return np.abs(scipy.optimize.nnls(x, x)[0])\n"
    )
    assert unused_imports(source, "spectral.py") == [
        "spectral.py:2: imports os unused", "spectral.py:5: imports row_norms unused"]


# ---------------------------------------------------------------------------
# batch sampling kernels: row k of each is the per-element form of row k
# ---------------------------------------------------------------------------

TRIALS = 24


def _spec_id(spec):
    kind, n, p = spec
    return f"{kind}:{n}" + (f":{p:g}" if p else "")


# both cone flavours: a spectral cone of each symmetric family, and two
# generator cones, a rotated orthant and one whose near-duplicate generators
# are kept apart
CONES = {
    **{f"cone {_spec_id(spec)}": (lambda spec=spec: SpectralSelfDualCone(get_model(*spec)))
       for spec in ALL_MODEL_SPECS if get_model(*spec).symmetric_tp},
    "rotated orthant": rotated_orthant,
    "near-duplicate orthant": lambda: near_duplicate_orthant(2, noise=1e-6),
}

# every model family, the cones above, and an oblique cone whose maximal
# orthogonal families have one or two atoms
SPACES = {
    **{_spec_id(spec): (lambda spec=spec: get_model(*spec)) for spec in ALL_MODEL_SPECS},
    **CONES,
    "oblique cone": lambda: GeneratorSelfDualCone(
        np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])),
}


def _bits(x, dtype):
    x = np.asarray(x, dtype=dtype)
    return x.shape, x.tobytes()


@pytest.fixture(params=list(SPACES.values()), ids=list(SPACES))
def space(request):
    return request.param()


def test_batch_samplers_draw_what_the_per_element_samplers_draw(space):
    per_element = [trial_rng(5, k) for k in range(TRIALS)]
    batched = [trial_rng(5, k) for k in range(TRIALS)]
    atoms = space.random_atom_param_batch(batched)
    frames = space.random_frame_params_batch(batched)
    assert len(atoms) == len(frames) == TRIALS
    for k, rng in enumerate(per_element):
        assert _bits(atoms[k], atoms.dtype) == _bits(space.random_atom_param(rng), atoms.dtype)
        frame = space.random_frame_params(rng)
        assert (_bits(frames[k, :len(frame)], frames.dtype)
                == _bits(np.reshape(frame, frames[k, :len(frame)].shape), frames.dtype))
        assert not frames[k, len(frame):].any()  # a shorter family is padded with zeros
    # every generator is left where the per-element calls leave it
    assert [rng.random() for rng in batched] == [rng.random() for rng in per_element]


def test_batch_atom_kernels_equal_the_per_element_kernels(space):
    rngs = [trial_rng(6, k) for k in range(TRIALS)]
    src = space.random_atom_param_batch(rngs)
    dst = space.random_atom_param_batch(rngs)
    frames = space.random_frame_params_batch(rngs)
    coords = np.random.default_rng(6).normal(size=(TRIALS, space.ambient_dim))
    atoms = space.atom_coords_batch(src)
    frame_atoms = space.atom_coords_batch(frames)
    values = space.state_values(src, coords)
    tps = space.transitions_from_params(src, dst)
    assert atoms.flags.c_contiguous and frame_atoms.flags.c_contiguous
    assert atoms.shape == coords.shape and values.shape == tps.shape == (TRIALS,)
    for k in range(TRIALS):
        assert _bits(atoms[k], float) == _bits(space.atom_coords(src[k]), float)
        for atom, param in zip(frame_atoms[k], frames[k]):
            assert _bits(atom, float) == _bits(space.atom_coords(param), float)
        assert values[k].tobytes() == np.float64(space.state_value(src[k], coords[k])).tobytes()
        assert tps[k].tobytes() == np.float64(
            space.transition_from_params(src[k], dst[k])).tobytes()
    # the atoms' parameters, read as one stack, and row k's read alone
    params = space.atom_params_from_coords(atoms)
    assert len(params) == TRIALS
    for k in range(TRIALS):
        alone = space.atom_param_from_coords(atoms[k])
        assert _bits(params[k], params.dtype) == _bits(alone, params.dtype)
        np.testing.assert_allclose(space.atom_coords(alone), atoms[k], atol=1e-12)
    if isinstance(space, Model):  # a cone's atom is its own parameter, unchecked
        bad = atoms.copy()
        bad[TRIALS // 2] *= 2.0  # twice an atom is no atom
        with pytest.raises(NotAtomError):
            space.atom_params_from_coords(bad)
        with pytest.raises(NotAtomError):
            space.atom_param_from_coords(bad[TRIALS // 2])


@pytest.mark.parametrize("shape", SHAPES)
def test_batched_elements_are_the_per_element_draws(space, shape):
    # on the oblique cone the stack pads the one-atom families, and each
    # generator must still draw the weights of its own family only
    per_element = [trial_rng(7, k) for k in range(TRIALS)]
    batched = [trial_rng(7, k) for k in range(TRIALS)]
    for _ in range(2):  # the second draw continues each generator's stream
        stack = _random_element(space, batched, shape)
        for row, rng in zip(stack, per_element):
            assert row.tobytes() == _random_element(space, [rng], shape)[0].tobytes()
    assert [rng.random() for rng in batched] == [rng.random() for rng in per_element]
    assert _random_element(space, [], shape).shape == (0, space.ambient_dim)


def _unnormalised(model, param):
    """A parameter that names no atom: out of range on classical, off the
    unit sphere elsewhere."""
    return model.ambient_dim if np.ndim(param) == 0 else 1.5 * param


@pytest.mark.parametrize("row", [0, 3])
def test_a_stack_with_one_unnormalised_row_raises_the_per_element_error(any_model, row):
    params = any_model.random_atom_param_batch([trial_rng(8, k) for k in range(6)])
    bad = _unnormalised(any_model, params[row])
    params = params.astype(np.result_type(params, np.asarray(bad)))
    params[row] = bad
    with pytest.raises(UnnormalizedParamError) as per_element:
        any_model.atom_coords(bad)
    with pytest.raises(UnnormalizedParamError) as batched:
        any_model.atom_coords_batch(params)
    assert str(batched.value) == str(per_element.value)


@pytest.mark.parametrize("make", list(CONES.values()), ids=list(CONES))
def test_each_per_element_cone_method_is_row_k_of_its_stack_form(make, tol):
    cone = make()
    rngs = [trial_rng(9, k) for k in range(TRIALS)]
    mixed = _random_element(cone, rngs)
    positive = _random_element(cone, rngs, "positive")
    atoms = cone.random_atom_param_batch(rngs)
    pairings = cone.inners(mixed, positive)
    defects = cone.cone_defects(mixed, tol)
    values, frames = cone.frames(mixed, tol)
    plus, minus = cone.moreau_parts(mixed, tol)
    # both from one decomposition, bit for bit
    (one_values, one_frames), one_parts = cone.frames_and_parts(mixed, tol)
    for got, want in zip((one_values, one_frames, *one_parts), (values, frames, plus, minus)):
        assert _bits(got, float) == _bits(want, float)
    complements = cone.complements(atoms, tol)
    heads, rests, single = cone.split_orthogonal_batch(
        positive, tol, np.sqrt(np.abs(cone.inners(positive, positive))))
    for k, x in enumerate(mixed):
        assert _bits(cone.inner(x, positive[k]), float) == _bits(pairings[k], float)
        assert _bits(cone.cone_defect(x, tol), float) == _bits(defects[k], float)
        frame = cone.frame(x, tol)
        count = len(frame)
        assert _bits([p.coefficient for p in frame], float) == _bits(values[k, :count], float)
        assert (_bits([cone.as_vec(p.atom) for p in frame], float)
                == _bits(frames[k, :count], float))
        assert not values[k, count:].any() and not frames[k, count:].any()
        pair = cone.moreau(x, tol)
        assert _bits(cone.as_vec(pair.a_plus), float) == _bits(plus[k], float)
        assert _bits(cone.as_vec(pair.a_minus), float) == _bits(minus[k], float)
        completion = cone.complement_coords(atoms[k], tol)
        assert (_bits(np.reshape(completion, complements[k].shape), float)
                == _bits(complements[k], float))
        split = cone.split_orthogonal(positive[k], tol)
        assert (split is None) == single[k]
        if split is not None:
            assert _bits(split, float) == _bits((heads[k], rests[k]), float)
    # the stack samplers: row k is the one-row draw from generator k, and
    # every generator is left where the one-row draws leave it
    batched = [trial_rng(10, k) for k in range(TRIALS)]
    alone = [trial_rng(10, k) for k in range(TRIALS)]
    for draw in ("random_positive", "random_element", "random_positive"):
        stack = getattr(cone, f"{draw}_batch")(batched)
        assert stack.shape == (TRIALS, cone.ambient_dim)
        for row, rng in zip(stack, alone):
            assert _bits(row, float) == _bits(cone.as_vec(getattr(cone, draw)(rng)), float)
    assert [rng.random() for rng in batched] == [rng.random() for rng in alone]


@pytest.mark.parametrize("make", list(CONES.values()), ids=list(CONES))
def test_cone_stack_forms_take_an_empty_stack(make, tol):
    cone = make()
    empty = np.zeros((0, cone.ambient_dim))
    assert cone.inners(empty, empty).shape == cone.cone_defects(empty, tol).shape == (0,)
    assert [part.shape for part in cone.moreau_parts(empty, tol)] == [empty.shape] * 2
    values, atoms = cone.frames(empty, tol)
    assert len(values) == len(atoms) == 0 and atoms.shape[2:] == (cone.ambient_dim,)
    assert cone.complements(empty, tol) == []
    assert cone.random_atom_param_batch([]).shape == empty.shape
    assert cone.random_frame_params_batch([]).shape[::2] == (0, cone.ambient_dim)
    for draw in (cone.random_element_batch, cone.random_positive_batch):
        assert draw([]).shape == empty.shape

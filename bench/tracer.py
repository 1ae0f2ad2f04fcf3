"""Outside-in layer tracing for jordantp.

``install`` wraps the public entry points of each layer from outside the
package: module functions are rebound in every jordantp module that imported
them (``from ... import`` copies, aliases included), methods are wrapped on the
class in the MRO that defines them, and the suite table, ``linprog`` and
``scipy.optimize.nnls`` are wrapped where the library looks them up.  Every
call records a span (name, start, end, parent, request id) in memory; nothing
under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

REQUEST = "request"
LP = "convexgeom.lp"
NNLS = "transition.nnls"
LOAD = "convexgeom.load"
AFFINITY = "convexgeom.affinity"

# module, attribute, span name
FUNCTIONS = [
    ("jordantp.cli", "main", "cli"),
    ("jordantp.core", "order_norm", "core.order_norm"),
    ("jordantp.core", "cone_contains", "core.cone_contains"),
    ("jordantp.spectral", "trial_rng", "spectral.trial_rng"),
    ("jordantp.spectral", "_random_element", "spectral.random_element"),
    *[("jordantp.logic", name, "logic.ops") for name in (
        "is_logic_element", "logic_element", "orthocomplement", "is_orthogonal_family",
        "meet", "join", "atomic_decomposition", "information_capacity_empirical")],
    ("jordantp.transition", "inner_product", "transition.inner_product"),
    ("jordantp.selfdual", "moreau_decompose", "selfdual.moreau"),
    ("jordantp.selfdual", "peel_positive", "selfdual.peel"),
    ("jordantp.selfdual", "peel_spectral", "selfdual.peel"),
    ("jordantp.reports", "dump_canonical_json", "reports.serialize"),
    ("jordantp.convexgeom", "polytope_from_csv", LOAD),
    ("jordantp.convexgeom", "check_extreme_affinity", AFFINITY),
    ("jordantp.convexgeom", "linprog", LP),
    ("scipy.optimize", "nnls", NNLS),
]

BACKEND_METHODS = {
    "decompose_coords": "backends.decompose_coords",
    "eigenvalues": "backends.eigenvalues",
    "spectral_form": "backends.spectral_form",
    "atom_coords": "backends.atom_coords",
    "atom_param_from_coords": "backends.atom_param_from_coords",
    "state_value": "backends.pairing",
    "transition_from_params": "backends.pairing",
    "native_pairing": "backends.pairing",
}

# class path, method names, span name
METHODS = [
    ("jordantp.elements.Element", ("__init__",), "elements.construct"),
    ("jordantp.elements.Element", ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"),
     "elements.arith"),
    ("jordantp.reports.VerificationReport", ("to_json", "to_csv"), "reports.serialize"),
    ("jordantp.transition.TPMatrix", ("to_csv",), "reports.serialize"),
]

MODEL_CLASSES = [
    "jordantp.backends.ClassicalModel", "jordantp.backends.SpinFactorModel",
    "jordantp.backends.SymMatrixModel", "jordantp.backends.HermMatrixModel",
    "jordantp.backends.LpQubitModel", "jordantp.convexgeom.PolytopeAffineModel",
]


def _resolve(path: str):
    module, _, name = path.rpartition(".")
    return getattr(sys.modules[module], name)


class Tracer:
    """In-memory span recorder; spans are parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.request_id = -1
        self.missing: list[str] = []
        self.patches: list[tuple] = []  # (setter, original, traced)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def activate(self, on: bool) -> None:
        """Put the traced wrappers in place (on) or the original callables back."""
        for setter, original, traced in self.patches:
            setter(traced if on else original)

    # ------------------------------------------------------------------
    # persistence: the child processes of cli-cold send their spans back
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64))

    def merge(self, path: str, request_id: int) -> None:
        """Append the spans saved at ``path`` under ``request_id``."""
        with np.load(path) as data:
            remap = [self._id(str(n)) for n in data["names"]]
            offset = len(self.name_id)
            self.name_id.extend(int(remap[i]) for i in data["name_id"])
            self.parent.extend(int(p) + offset if p >= 0 else -1 for p in data["parent"])
            self.request.extend([request_id] * len(data["parent"]))
            self.start.extend(int(x) for x in data["start"])
            self.end.extend(int(x) for x in data["end"])


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point and activate the wrappers.

    Bindings that no longer exist are listed in ``tracer.missing``.
    """
    import scipy.optimize  # noqa: F401  (nnls is wrapped on this module)

    import jordantp.cli  # noqa: F401  (imports every layer)
    from jordantp.suites import SUITES

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "jordantp" or name.startswith("jordantp."))]
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        traced = tracer.wrap(original, span)
        for module in {id(m): m for m in modules + [sys.modules[module_name]]}.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    tracer.patches.append((functools.partial(setattr, module, key), original, traced))
    for name, suite in SUITES.items():
        tracer.patches.append((functools.partial(SUITES.__setitem__, name), suite,
                               tracer.wrap(suite, f"suites.{name}")))

    wrapped = set()

    def wrap_method(cls, attr, span):
        owner = next((c for c in cls.__mro__ if attr in vars(c)), None)
        if owner is None:
            tracer.missing.append(f"{cls.__name__}.{attr}")
        elif (owner, attr) not in wrapped:
            wrapped.add((owner, attr))
            original = vars(owner)[attr]
            tracer.patches.append((functools.partial(setattr, owner, attr), original,
                                   tracer.wrap(original, span)))

    for path in MODEL_CLASSES:
        for attr, span in BACKEND_METHODS.items():
            wrap_method(_resolve(path), attr, span)
    for path, attrs, span in METHODS:
        for attr in attrs:
            wrap_method(_resolve(path), attr, span)
    tracer.activate(True)


# ---------------------------------------------------------------------------
# layer metrics from spans
# ---------------------------------------------------------------------------

CALL_LAYERS = [
    "backends.decompose_coords", "backends.eigenvalues", "backends.spectral_form",
    "backends.atom_coords", "backends.atom_param_from_coords", "backends.pairing",
    "elements.construct", "elements.arith", "spectral.trial_rng", "spectral.random_element",
    "core.order_norm", "core.cone_contains", "logic.ops", "transition.inner_product",
    "selfdual.moreau", "selfdual.peel",
]
SUITE_NAMES = ("axioms", "spectral", "logic", "tp", "selfdual")


def _ancestor_among(parent: np.ndarray, name_id: np.ndarray, idx: int, targets: set) -> int:
    idx = parent[idx]
    while idx >= 0 and name_id[idx] not in targets:
        idx = parent[idx]
    return -1 if idx < 0 else int(name_id[idx])


def span_table(tracer: Tracer, requests: set[int] | None = None) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    duration = (np.frombuffer(tracer.end, dtype=np.int64)
                - np.frombuffer(tracer.start, dtype=np.int64)).astype(float)
    child = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    keep = np.ones(len(duration), dtype=bool)
    if requests is not None:
        keep = np.isin(np.frombuffer(tracer.request, dtype=np.int32), list(requests))
    table = {}
    for nid, name in enumerate(tracer.names):
        sel = keep & (name_id == nid)
        table[name] = {"calls": int(sel.sum()),
                       "incl_s": float(duration[sel].sum()) * 1e-9,
                       "self_s": float((duration[sel] - child[sel]).sum()) * 1e-9}
    # split LP solves by the span that caused them: hull checks at load or
    # the affinity probes
    ids = {tracer._ids.get(LOAD, -2), tracer._ids.get(AFFINITY, -2)}
    lp = tracer._ids.get(LP)
    split = {LOAD: [0, 0.0], AFFINITY: [0, 0.0]}
    if lp is not None:
        for idx in np.flatnonzero(keep & (name_id == lp)):
            owner = _ancestor_among(parent, name_id, idx, ids)
            if owner >= 0:
                split[tracer.names[owner]][0] += 1
                split[tracer.names[owner]][1] += duration[idx] * 1e-9
    eig = tracer._ids.get("backends.eigenvalues", -2)
    dec = tracer._ids.get("backends.decompose_coords", -2)
    dec_sel = keep & (name_id == dec)
    inside = int((dec_sel & has_parent & (name_id[np.where(has_parent, parent, 0)] == eig)).sum())
    table["_lp_split"] = split
    table["_decompositions_in_eigenvalues"] = inside
    return table


def layer_metrics(table: dict, verdicts: int) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    get = lambda name, key: table.get(name, {}).get(key, 0)  # noqa: E731
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (get(layer, "calls"), "count")
        out[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
    decompositions = get("backends.decompose_coords", "calls")
    out["backends.frame_discard_ratio"] = (
        table["_decompositions_in_eigenvalues"] / decompositions if decompositions else 0.0, "ratio")
    out["transition.nnls_solves"] = (get(NNLS, "calls"), "count")
    out["transition.nnls_s"] = (get(NNLS, "incl_s"), "s")
    for suite in SUITE_NAMES:
        out[f"suites.{suite}.s"] = (get(f"suites.{suite}", "incl_s"), "s")
    split = table["_lp_split"]
    out["convexgeom.lp_solves"] = (get(LP, "calls"), "count")
    out["convexgeom.lp_s"] = (get(LP, "incl_s"), "s")
    out["convexgeom.lp_solves.hull"] = (split[LOAD][0], "count")
    out["convexgeom.lp_solves.affinity"] = (split[AFFINITY][0], "count")
    out["convexgeom.lp_s.hull"] = (split[LOAD][1], "s")
    out["convexgeom.lp_s.affinity"] = (split[AFFINITY][1], "s")
    out["convexgeom.lp_per_verdict"] = (get(LP, "calls") / verdicts if verdicts else 0.0, "ratio")
    out["cli.self_s"] = (get("cli", "self_s"), "s")
    out["reports.serialize.self_s"] = (get("reports.serialize", "self_s"), "s")
    return out

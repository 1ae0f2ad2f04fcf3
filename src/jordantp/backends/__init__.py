"""Backend registry, keyed by kind string."""

from __future__ import annotations

from .base import AtomSpace, Model, ModelDescriptor
from .classical import ClassicalModel
from .lpqubit import LpQubitModel
from .matrices import HermMatrixModel, SymMatrixModel
from .spin import SpinFactorModel

REGISTRY: dict[str, type] = {
    "classical": ClassicalModel,
    "spin": SpinFactorModel,
    "sym": SymMatrixModel,
    "herm": HermMatrixModel,
    "lpq": LpQubitModel,
}

_CACHE: dict[tuple, Model] = {}


def get_model(kind: str, n: int, p: float | None = None) -> Model:
    """Construct (or reuse) the immutable model ``kind`` with its parameters."""
    if kind not in REGISTRY:
        raise ValueError(f"unknown model kind {kind!r}; known: {sorted(REGISTRY)}")
    key = (kind, int(n), None if p is None else float(p))
    if key not in _CACHE:
        if kind == "lpq":
            if p is None:
                raise ValueError("lpq model needs the exponent p, e.g. lpq:2:3")
            _CACHE[key] = LpQubitModel(n, p)
        else:
            if p is not None:
                raise ValueError(f"model kind {kind!r} takes no exponent p")
            _CACHE[key] = REGISTRY[kind](n)
    return _CACHE[key]


def parse_model_spec(spec: str) -> Model:
    """Parse a ``kind:n[:p]`` string, e.g. ``herm:3`` or ``lpq:2:3``."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"model spec must look like kind:n[:p], got {spec!r}")
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"model size must be an integer, got {parts[1]!r}") from None
    p = None
    if len(parts) == 3:
        try:
            p = float(parts[2])
        except ValueError:
            raise ValueError(f"exponent must be a float, got {parts[2]!r}") from None
    return get_model(kind, n, p)


__all__ = [
    "AtomSpace",
    "Model",
    "ModelDescriptor",
    "ClassicalModel",
    "SpinFactorModel",
    "SymMatrixModel",
    "HermMatrixModel",
    "LpQubitModel",
    "REGISTRY",
    "get_model",
    "parse_model_spec",
]

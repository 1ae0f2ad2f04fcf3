"""Element, tolerance and spectral-form containers.

Every element of every model is a dense real coordinate vector; the meaning
of the coordinates is fixed by the owning backend (see ``jordantp.backends``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, ModelMismatchError

if TYPE_CHECKING:
    from .backends.base import Model


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances used by every verifier.

    eig_cluster is relative (measured against the spectral diameter),
    cone_slack and check_tol are absolute.
    """

    eig_cluster: float = 1e-8
    cone_slack: float = 1e-9
    check_tol: float = 1e-9

    def __post_init__(self):
        for name in ("eig_cluster", "cone_slack", "check_tol"):
            val = getattr(self, name)
            if not (0.0 < val < 1e-3):
                raise ValueError(f"{name} must lie strictly in (0, 1e-3), got {val}")

    def replace(self, **kwargs) -> "Tolerance":
        return dataclasses.replace(self, **kwargs)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Element:
    """Coordinate vector in a model's ambient real space.

    Equality and hashing are by identity: comparing coordinates needs a
    tolerance, which ``==`` cannot take."""

    coords: np.ndarray
    model: "Model" = field(repr=False)

    def __post_init__(self):
        # Every element, the results of arithmetic included, is checked here:
        # a sum or multiple of finite coordinates can overflow to inf.  The
        # finiteness test runs on Python floats, which is exact for a 1-D
        # float vector and avoids numpy's reduction dispatch.
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 1 or coords.shape[0] != self.model.ambient_dim:
            raise DimensionMismatchError(
                f"expected {self.model.ambient_dim} coordinates, got shape {coords.shape}"
            )
        if not all(map(math.isfinite, coords.tolist())):
            raise ValueError("element coordinates must be finite")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def _check_same_model(self, other: "Element") -> None:
        if self.model is not other.model and self.model.descriptor != other.model.descriptor:
            raise ModelMismatchError(
                f"elements belong to different models: {self.model.descriptor} vs {other.model.descriptor}"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check_same_model(other)
        return Element(self.coords + other.coords, self.model)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_model(other)
        return Element(self.coords - other.coords, self.model)

    def __neg__(self) -> "Element":
        return Element(-self.coords, self.model)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.coords * float(scalar), self.model)

    __rmul__ = __mul__

    def to_json(self) -> list:
        return [float(x) for x in self.coords]


@dataclass(frozen=True)
class SpectralPair:
    eigenvalue: float
    atom: Element


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """Complete spectral frame: pairwise-orthogonal atoms summing to the order unit.

    The read-only arrays of ``decompose_coords``: eigenvalues (m,) and the
    coordinates (m, d) of their atoms.  Frames are padded with zero
    eigenvalues, so the atoms resolve the order unit exactly and m never
    exceeds the information capacity.  Atoms become elements when read.
    """

    eigenvalues: np.ndarray
    atom_coords: np.ndarray
    model: "Model" = field(repr=False)

    @cached_property
    def atoms(self) -> tuple[Element, ...]:
        return tuple(Element(atom, self.model) for atom in self.atom_coords)

    @cached_property
    def pairs(self) -> tuple[SpectralPair, ...]:
        return tuple(SpectralPair(s, e) for s, e in zip(self.eigenvalues.tolist(), self.atoms))

    def reconstruct(self) -> Element:
        return self.apply(float)

    def apply(self, func) -> Element:
        """Resum the frame with eigenvalues mapped through ``func``."""
        values = np.empty(len(self.eigenvalues))
        for k, s in enumerate(self.eigenvalues.tolist()):
            try:
                values[k] = float(func(s))
            except (ArithmeticError, ValueError) as exc:
                raise ValueError(f"function failed at eigenvalue {s}: {exc}") from exc
        return Element(resum(self.eigenvalues, values, self.atom_coords), self.model)


def resum(eigenvalues: np.ndarray, values: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Coordinates of the sum over j of ``values[..., j] * atoms[..., j, :]``,
    added up in frame order from zero: the functional calculus on one frame
    (values (m,), atoms (m, d)) or on a stack of frames ((K, m), (K, m, d)).

    ``values`` are the ``eigenvalues`` mapped through a function; the first
    one that is not finite raises, named by its eigenvalue.
    """
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))
        raise ValueError(f"function not finite at eigenvalue {float(eigenvalues[tuple(bad[0])])}")
    coords = np.zeros(atoms.shape[:-2] + atoms.shape[-1:])
    for j in range(atoms.shape[-2]):
        coords += values[..., j, np.newaxis] * atoms[..., j, :]
    return coords

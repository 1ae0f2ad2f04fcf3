"""Backend interface: everything a model must supply to the generic layers."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ..elements import DEFAULT_TOL, Element, SpectralForm, SpectralPair, Tolerance
from ..errors import DimensionMismatchError, UnsupportedModelError


@dataclass(frozen=True)
class ModelDescriptor:
    """Backend identity plus the derived structural constants."""

    backend_kind: str
    params: tuple
    ambient_dim: int
    info_capacity: int
    symmetric_tp: bool
    has_inner_product: bool

    def __post_init__(self):
        if self.info_capacity > self.ambient_dim:
            raise ValueError("information capacity cannot exceed the ambient dimension")
        if self.symmetric_tp and not self.has_inner_product:
            raise ValueError("a symmetric transition probability implies an inner product")

    def to_json(self) -> dict:
        out = {"kind": self.backend_kind}
        for key, val in self.params:
            out[key] = val
        return out


class Model(ABC):
    """A concrete order unit space with a spectral backend.

    Coordinates are dense real vectors; each backend fixes their meaning.
    Instances are immutable and safe for concurrent use.
    """

    kind: str = ""
    state_kind: str = "dual_vector"  # atom states: "dual_vector" | "point_evaluation"

    # ------------------------------------------------------------------
    # descriptor data
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def ambient_dim(self) -> int: ...

    @property
    @abstractmethod
    def info_capacity(self) -> int: ...

    @property
    def symmetric_tp(self) -> bool:
        return True

    @property
    def has_inner_product(self) -> bool:
        return self.symmetric_tp

    @property
    @abstractmethod
    def param_items(self) -> tuple:
        """Backend parameters as ordered (name, value) pairs."""

    @property
    def descriptor(self) -> ModelDescriptor:
        return ModelDescriptor(
            backend_kind=self.kind,
            params=self.param_items,
            ambient_dim=self.ambient_dim,
            info_capacity=self.info_capacity,
            symmetric_tp=self.symmetric_tp,
            has_inner_product=self.has_inner_product,
        )

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.param_items)
        return f"{type(self).__name__}({args})"

    # ------------------------------------------------------------------
    # element plumbing
    # ------------------------------------------------------------------

    def element(self, values) -> Element:
        return Element(np.asarray(values, dtype=float), self)

    def zero(self) -> Element:
        return self.element(np.zeros(self.ambient_dim))

    @abstractmethod
    def order_unit_coords(self) -> np.ndarray: ...

    def order_unit(self) -> Element:
        return self.element(self.order_unit_coords())

    def check_element(self, a: Element) -> Element:
        if a.model is not self and a.model.descriptor != self.descriptor:
            raise DimensionMismatchError(
                f"element belongs to {a.model.descriptor}, not {self.descriptor}"
            )
        return a

    # ------------------------------------------------------------------
    # spectral kernel
    # ------------------------------------------------------------------

    @abstractmethod
    def decompose_coords(self, coords: np.ndarray, tol: Tolerance) -> list[tuple[float, np.ndarray]]:
        """Complete spectral frame, eigenvalues sorted descending.

        Returns at most ``info_capacity`` pairs whose atoms are pairwise
        orthogonal and sum to the order unit; degenerate eigenspaces are
        resolved deterministically.
        """

    def spectral_form(self, a: Element, tol: Tolerance = DEFAULT_TOL) -> SpectralForm:
        self.check_element(a)
        coords = np.asarray(a.coords, dtype=float)
        frame = self.decompose_coords(coords, tol)
        for k, (s, _) in enumerate(frame):
            if not math.isfinite(s):
                # eigenvalues are homogeneous: halving the element names the value
                half = self.eigenvalues_coords(0.5 * coords, tol)[k]
                raise ValueError(f"eigenvalue {k} (largest first) of the element is "
                                 f"{2 * Decimal(half):.6e}, outside the range of a double")
        return SpectralForm(pairs=tuple(SpectralPair(float(s), self.element(atom))
                                        for s, atom in frame))

    def eigenvalues_coords(self, coords: np.ndarray, tol: Tolerance) -> np.ndarray:
        """Eigenvalues of the frame of ``coords``, without its atoms.

        Contract: the result equals, bit for bit, the eigenvalues of
        ``decompose_coords(coords, tol)`` in the same order, so a check may
        compare the two at tolerance 0.  The default reads them off the full
        frame; a backend overrides it only with the same arithmetic minus the
        atoms.
        """
        return np.array([s for s, _ in self.decompose_coords(coords, tol)])

    def eigenvalues(self, a: Element, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return self.eigenvalues_coords(a.coords, tol)

    @abstractmethod
    def cone_oracle(self, coords: np.ndarray, slack: float) -> bool:
        """Closed-form cone membership, independent of the spectral kernel."""

    @abstractmethod
    def split_orthogonal_coords(self, coords: np.ndarray, tol: Tolerance):
        """Two orthogonal positive parts ``(head, rest)`` of a positive
        element, or None for a multiple of one atom; computed without
        ``decompose_coords``, so that peeling checks the kernel."""

    # ------------------------------------------------------------------
    # atoms
    # ------------------------------------------------------------------

    @abstractmethod
    def atom_coords(self, param) -> np.ndarray:
        """Coordinates of the minimal extreme point described by ``param``.

        Raises UnnormalizedParamError when the parameter is not normalized in
        the backend's relevant norm.
        """

    def atom(self, param) -> Element:
        return self.element(self.atom_coords(param))

    @abstractmethod
    def atom_param_from_coords(self, coords: np.ndarray, tol: Tolerance):
        """Recover the defining parameter of an atom given its coordinates."""

    @abstractmethod
    def random_atom_param(self, rng: np.random.Generator): ...

    @abstractmethod
    def random_frame_params(self, rng: np.random.Generator) -> list:
        """Parameters of a random maximal orthogonal family of atoms."""

    # ------------------------------------------------------------------
    # states and pairings
    # ------------------------------------------------------------------

    @abstractmethod
    def state_value(self, param, coords: np.ndarray) -> float:
        """Value of the unique atom state P_e at the element with ``coords``."""

    def transition_from_params(self, param_src, param_dst) -> float:
        """P_{e_src}(e_dst) evaluated natively from the atom parameters."""
        return self.state_value(param_src, self.atom_coords(param_dst))

    def native_pairing(self, ca: np.ndarray, cb: np.ndarray) -> float:
        """Closed-form value of the self-dualizing inner product, where it exists."""
        raise UnsupportedModelError(
            f"model kind {self.kind!r} has no symmetric transition probability, "
            "hence no inner product"
        )


def cluster_descending(eigenvalues: np.ndarray, eig_cluster: float) -> list[slice]:
    """Group a descending eigenvalue vector into clusters.

    The gap threshold is relative to the spectral diameter, so clustering is
    scale invariant.  Gaps are compared halved: a difference of two finite
    doubles can overflow, one of their halves cannot, and halving is exact
    above the subnormal range, so the clusters are those of the full gaps.
    """
    n = len(eigenvalues)
    if n == 0:
        return []
    half = (0.5 * np.asarray(eigenvalues, dtype=float)).tolist()
    threshold = eig_cluster * float(half[0] - half[-1])
    slices = []
    start = 0
    for k in range(1, n):
        if half[k - 1] - half[k] > threshold:
            slices.append(slice(start, k))
            start = k
    slices.append(slice(start, n))
    return slices

"""Backend interface: everything a model must supply to the generic layers."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

import numpy as np

from ..elements import DEFAULT_TOL, Element, SpectralForm, Tolerance
from ..errors import DimensionMismatchError, UnnormalizedParamError, UnsupportedModelError


@dataclass(frozen=True)
class ModelDescriptor:
    """Backend identity plus the derived structural constants."""

    backend_kind: str
    params: tuple
    ambient_dim: int
    info_capacity: int
    symmetric_tp: bool

    def __post_init__(self):
        if self.info_capacity > self.ambient_dim:
            raise ValueError("information capacity cannot exceed the ambient dimension")

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
        )

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.param_items)
        return f"{type(self).__name__}({args})"

    # ------------------------------------------------------------------
    # element plumbing
    # ------------------------------------------------------------------

    def element(self, values) -> Element:
        return Element(values, self)

    def zero(self) -> Element:
        return self.element(np.zeros(self.ambient_dim))

    @abstractmethod
    def order_unit_coords(self) -> np.ndarray: ...

    def order_unit(self) -> Element:
        """The order unit, built once per model: elements are immutable."""
        try:
            return self._order_unit
        except AttributeError:
            self._order_unit = self.element(self.order_unit_coords())
            return self._order_unit

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
    def decompose_coords(self, coords: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
        """Complete spectral frame: eigenvalues (m,) sorted descending and
        the C-contiguous coordinates (m, d) of their atoms.

        At most ``info_capacity`` atoms, pairwise orthogonal and summing to
        the order unit; degenerate eigenspaces are resolved
        deterministically.  Row k of ``decompose_batch`` of a stack whose row
        k is ``coords``, bit for bit, computed apart: a batch of one costs
        18-81 us a call against 5-44 us here (timeit, one thread, 2-core
        host), and most calls decompose one element.  So the matrix
        backends keep a cheap spectrum here, and only its degenerate
        clusters go through the basis routine that ``decompose_batch`` runs
        once per cluster rank over the whole stack, as stacks of one.
        """

    def decompose_batch(self, stack: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
        """The frames of the rows of a (K, d) stack: eigenvalues (K, m) and
        atoms (K, m, d), row k equal bit for bit to ``decompose_coords`` of
        ``stack[k]``.  A row with an eigenvalue outside the doubles raises
        the ``ValueError`` that ``spectral_form`` raises for it.  The atoms
        are C-contiguous, as there, so that a reduction over an atom (a dot
        product) adds up in one order on both paths."""
        values, atoms = self._frames(stack, tol)
        self._refuse_overflow(values, stack, tol)
        return values, np.ascontiguousarray(atoms)

    @abstractmethod
    def _frames(self, stack: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
        """``decompose_batch`` without the check of the eigenvalues."""

    def _refuse_overflow(self, values: np.ndarray, stack: np.ndarray, tol: Tolerance) -> None:
        """Raise for the first eigenvalue of a (K, m) stack of spectra of the
        rows of ``stack`` that is not finite, row by row."""
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            row, k = bad[0]
            # eigenvalues are homogeneous: halving the element names the value
            half = self.eigenvalues_coords(0.5 * stack[row], tol)[k]
            raise ValueError(f"eigenvalue {k} (largest first) of the element is "
                             f"{2 * Decimal(half):.6e}, outside the range of a double")

    def spectral_form(self, a: Element, tol: Tolerance = DEFAULT_TOL) -> SpectralForm:
        """The frame of ``decompose_coords`` as a ``SpectralForm`` of
        read-only arrays.

        The form is only ever made by ``decompose_coords`` and the eigenvalues
        of ``eigenvalues`` only by ``eigenvalues_coords``: neither is served
        from the other, so a check comparing the two paths still compares two
        computations.  A spectrum outside the doubles raises.
        """
        coords = np.asarray(self.check_element(a).coords, dtype=float)
        values, atoms = self.decompose_coords(coords, tol)
        if not all(map(math.isfinite, values.tolist())):
            self._refuse_overflow(values[np.newaxis], coords[np.newaxis], tol)
        return SpectralForm(_read_only(values), _read_only(atoms), self)

    @abstractmethod
    def eigenvalues_coords(self, coords: np.ndarray, tol: Tolerance) -> np.ndarray:
        """Eigenvalues of the frame of ``coords``, without its atoms.

        Contract: the result equals, bit for bit, the eigenvalues of
        ``decompose_coords(coords, tol)`` in the same order, so a check may
        compare the two at tolerance 0; the per-element form of
        ``eigenvalues_batch``.
        """

    @abstractmethod
    def eigenvalues_batch(self, stack: np.ndarray, tol: Tolerance) -> np.ndarray:
        """The (K, m) eigenvalues of the rows of a (K, d) stack, row k equal
        bit for bit to ``eigenvalues_coords`` of ``stack[k]``; the same
        arithmetic as ``decompose_batch`` minus the atoms, so a non-finite
        eigenvalue is returned, not refused."""

    def eigenvalues(self, a: Element | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Eigenvalues of an element or of a coordinate vector, descending, as
        a read-only array."""
        coords = a.coords if isinstance(a, Element) else np.asarray(a, dtype=float)
        return _read_only(self.eigenvalues_coords(coords, tol))

    def cone_defect(self, a: Element | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
        """How far ``a`` (an element or coordinates) lies outside the positive
        cone: ``cone_distance`` of its least eigenvalue."""
        return cone_distance(float(self.eigenvalues(a, tol).min()))

    def cone_defects(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """``cone_defect`` of each row of a (K, d) stack, bit for bit, from
        one ``eigenvalues_batch``."""
        return cone_distances(self.eigenvalues_batch(stack, tol))

    @abstractmethod
    def cone_oracle(self, coords: np.ndarray, slack: float) -> bool:
        """Closed-form cone membership, independent of the spectral kernel."""

    @abstractmethod
    def split_orthogonal_batch(self, stack: np.ndarray, tol: Tolerance):
        """Two orthogonal positive parts of the positive element in each row
        of a (K, d) stack, computed without the spectral kernel, so that
        peeling checks it: heads (K, d), rests (K, d) and a (K,) mask of the
        rows that are a multiple of one atom, whose parts are not defined.
        A row's parts do not depend on the rest of the stack; a row that is
        not a cone element raises ``ConeProjectionError``."""

    def split_orthogonal_coords(self, coords: np.ndarray, tol: Tolerance):
        """``(head, rest)`` of one element, or None for a multiple of one
        atom: the one-row case of ``split_orthogonal_batch``."""
        heads, rests, single = self.split_orthogonal_batch(
            np.asarray(coords, dtype=float)[np.newaxis], tol)
        return None if single[0] else (heads[0], rests[0])

    # ------------------------------------------------------------------
    # atoms
    # ------------------------------------------------------------------

    # The atom kernels work on stacks; each per-element form below is the
    # one-row case of its stack form, defined here once.  One atom parameter
    # has ``param_ndim`` array dimensions: a vector, or a basis index on
    # classical.

    param_ndim = 1
    _not_a_param = "atom parameter must be a vector"

    def _one_row(self, param) -> np.ndarray:
        """The stack (1, ...) of a single atom parameter."""
        row = np.asarray(param)
        if row.ndim != self.param_ndim:
            raise UnnormalizedParamError(self._not_a_param.format(param))
        return row[np.newaxis]

    @abstractmethod
    def atom_coords_batch(self, params) -> np.ndarray:
        """Coordinates of the minimal extreme point described by each
        parameter in a stack, as a C-contiguous stack (..., d), so that a
        dot product with a row adds up in one order whatever the stack.

        Raises UnnormalizedParamError when a parameter is not normalized in
        the backend's relevant norm; the whole stack is tested at once.
        """

    def atom_coords(self, param) -> np.ndarray:
        return self.atom_coords_batch(self._one_row(param))[0]

    def atom(self, param) -> Element:
        return self.element(self.atom_coords(param))

    @abstractmethod
    def atom_param_from_coords(self, coords: np.ndarray):
        """Recover the defining parameter of an atom given its coordinates."""

    # The samplers take a list of generators, one per trial.  Row k is drawn
    # from rngs[k] alone, so a generator makes the same draws whatever the
    # other rows; only the raw draws loop over the generators, the
    # normalisation runs once over the stack.

    @abstractmethod
    def random_atom_param_batch(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """The parameter of a random atom from each generator, as a stack."""

    @abstractmethod
    def random_frame_params_batch(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Parameters of a random maximal orthogonal family of atoms from
        each generator, as a stack (K, m, ...): row k holds the m parameters
        of the family drawn from rngs[k]."""

    def random_atom_param(self, rng: np.random.Generator):
        return self.random_atom_param_batch([rng])[0]

    def random_frame_params(self, rng: np.random.Generator) -> list:
        return list(self.random_frame_params_batch([rng])[0])

    def complements(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        """For the atom in each row of a (K, d) stack, the coordinates (n, d)
        of the atoms that complete it to a maximal orthogonal family: the
        frame of the logic element unit - e, from one ``decompose_batch``."""
        values, atoms = self.decompose_batch(self.order_unit().coords - stack, tol)
        return [frame[row > 0.5] for row, frame in zip(values, atoms)]

    # ------------------------------------------------------------------
    # states and pairings
    # ------------------------------------------------------------------

    @abstractmethod
    def state_values(self, params, coords: np.ndarray) -> np.ndarray:
        """Value of the unique atom state P_e of each row of a stack of
        parameters at the element in the same row of a (K, d) stack of
        coordinates, as a (K,) array."""

    def state_value(self, param, coords: np.ndarray) -> float:
        return float(self.state_values(self._one_row(param), np.asarray(coords)[np.newaxis])[0])

    def transitions_from_params(self, src, dst) -> np.ndarray:
        """P_{e_src}(e_dst) evaluated natively from the atom parameters in
        the rows of two stacks, as a (K,) array."""
        return self.state_values(src, self.atom_coords_batch(dst))

    def transition_from_params(self, param_src, param_dst) -> float:
        return float(self.transitions_from_params(self._one_row(param_src),
                                                  self._one_row(param_dst))[0])

    def native_pairing(self, ca: np.ndarray, cb: np.ndarray) -> float:
        """Closed-form value of the self-dualizing inner product, where it
        exists: the one-row case of ``native_pairings``."""
        return float(self.native_pairings(ca, cb))

    def native_pairings(self, stack_a: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
        """``native_pairing`` of the rows of two stacks (..., d) that
        broadcast against each other; a row's value does not depend on the
        rest of the stack.  The backends add up each row with ``np.vecdot``
        (``einsum`` adds in another order, so its last bits differ)."""
        raise UnsupportedModelError(
            f"model kind {self.kind!r} has no symmetric transition probability, "
            "hence no inner product"
        )


def cone_distance(least: float) -> float:
    """How far a spectrum with least eigenvalue ``least`` lies outside the
    positive cone: the one cone-distance formula.  NaN is infinitely far."""
    return math.inf if math.isnan(least) else max(0.0, -least)


def cone_distances(eigs: np.ndarray) -> np.ndarray:
    """``cone_distance`` of the least eigenvalue of each row of a (K, m)
    stack of spectra."""
    least = eigs.min(axis=1)
    return np.where(np.isnan(least), math.inf, np.where(least < 0.0, -least, 0.0))


def normal_draws(rngs: Sequence[np.random.Generator], shape: tuple) -> np.ndarray:
    """A standard normal array of ``shape`` from each generator, stacked
    (K, *shape): what ``rng.normal(size=shape)`` draws from each."""
    return np.array([rng.normal(size=shape) for rng in rngs]).reshape((len(rngs),) + shape)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a stack (..., n), bit for bit: the
    squares add up as one dot product per row (real and imaginary parts
    apart), as there; ``norm(axis=-1)`` adds them in another order."""
    if np.iscomplexobj(rows):
        return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))
    return np.sqrt(np.vecdot(rows, rows))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


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

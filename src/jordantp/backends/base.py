"""Backend interface: everything a model must supply to the generic layers."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ..elements import DEFAULT_TOL, Element, SpectralForm, SpectralPair, Tolerance
from ..errors import DimensionMismatchError, UnsupportedModelError


# The memo of the innermost open ``remembering_spectra`` block of this thread
# or task; None outside every block.
_MEMO: ContextVar[dict | None] = ContextVar("jordantp_memo", default=None)
MEMO_ENTRIES = 1024


@contextmanager
def remembering_spectra():
    """Within the block, ``remembered`` computes each key's value once.

    One block is one verification run (``run_suite`` opens it around its
    suites): its memo is made empty on entry and dropped on exit, so nothing
    carries over from one run to the next, and a ``ContextVar`` keeps the
    memos of concurrent threads apart.  The memo holds at most
    ``MEMO_ENTRIES`` values and drops the oldest one first.  It remembers
    spectra (``Model.spectral_form`` and ``Model.eigenvalues``, in separate
    slots) and the seed words of ``spectral.trial_rng``; every value is
    immutable, so sharing it is safe.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def remembered(key, make):
    """``make()``, computed once per ``key`` inside ``remembering_spectra``.

    Outside every block this is a plain call.  A ``make`` that raises stores
    nothing, so it raises again on the next call.
    """
    memo = _MEMO.get()
    if memo is None:
        return make()
    try:
        return memo[key]
    except KeyError:
        pass
    value = make()
    if len(memo) >= MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


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
    def decompose_coords(self, coords: np.ndarray, tol: Tolerance) -> list[tuple[float, np.ndarray]]:
        """Complete spectral frame, eigenvalues sorted descending.

        Returns at most ``info_capacity`` pairs whose atoms are pairwise
        orthogonal and sum to the order unit; degenerate eigenspaces are
        resolved deterministically.
        """

    def spectral_form(self, a: Element, tol: Tolerance = DEFAULT_TOL) -> SpectralForm:
        """The frame of ``decompose_coords`` as elements, eigenvalues descending.

        Inside ``remembering_spectra`` (one verification run, at most
        ``MEMO_ENTRIES`` remembered values) an element whose coordinates, model
        and tolerance were already decomposed gets the same (immutable) form
        back; outside it every call decomposes.
        The form is only ever made by ``decompose_coords`` and the eigenvalues
        of ``eigenvalues`` only by ``eigenvalues_coords``: neither is served
        from the other, so a check comparing the two paths still compares two
        computations.  A spectrum outside the doubles raises on every call.
        """
        self.check_element(a)
        coords = np.asarray(a.coords, dtype=float)
        return remembered(("form", self, tol, coords.shape, coords.tobytes()),
                          lambda: self._spectral_form(coords, tol))

    def _spectral_form(self, coords: np.ndarray, tol: Tolerance) -> SpectralForm:
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

    def eigenvalues(self, a: Element | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Eigenvalues of an element or of a coordinate vector, descending, as
        a read-only array; remembered like ``spectral_form``, in a slot of
        their own."""
        coords = a.coords if isinstance(a, Element) else np.asarray(a, dtype=float)
        return remembered(("eigenvalues", self, tol, coords.shape, coords.tobytes()),
                          lambda: _read_only(self.eigenvalues_coords(coords, tol)))

    def cone_defect(self, a: Element | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
        """How far ``a`` (an element or coordinates) lies outside the positive
        cone: minus its least eigenvalue, 0 inside the cone.  The one
        cone-distance formula; a NaN spectrum is infinitely far."""
        least = float(self.eigenvalues(a, tol).min())
        return math.inf if math.isnan(least) else max(0.0, -least)

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
    def atom_param_from_coords(self, coords: np.ndarray):
        """Recover the defining parameter of an atom given its coordinates."""

    @abstractmethod
    def random_atom_param(self, rng: np.random.Generator): ...

    @abstractmethod
    def random_frame_params(self, rng: np.random.Generator) -> list:
        """Parameters of a random maximal orthogonal family of atoms."""

    def complement_coords(self, e: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        """Coordinates of the atoms that complete the atom ``e`` to a maximal
        orthogonal family: the frame of the logic element unit - e."""
        form = self.spectral_form(self.element(self.order_unit().coords - e), tol)
        return [p.atom.coords for p in form.pairs if p.eigenvalue > 0.5]

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

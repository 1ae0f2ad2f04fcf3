"""Euclidean spaces with self-dual cones: Moreau splits, atom peeling and
order-unit recovery.

Two cone flavors are supported:

  * spectral cones wrapping a backend with symmetric transition probability
    (the inner product is the backend's native pairing), and
  * finitely generated cones given by a generator matrix, with the ambient
    dot product (membership and projection via nonnegative least squares).

Arbitrary membership-oracle cones are out of scope: atom indecomposability
is not decidable from membership alone.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass

import numpy as np

from .backends.base import AtomSpace, Model, normal_draws, row_norms
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import ConeProjectionError, DimensionMismatchError, UnsupportedModelError
from .reports import read_csv_rows
from .spectral import _random_element, trial_rng


@dataclass(frozen=True)
class MoreauPair:
    """Orthogonal positive split a = a_plus - a_minus."""

    a_plus: object
    a_minus: object


@dataclass(frozen=True)
class PeeledAtom:
    coefficient: float
    atom: object


class SelfDualCone(AtomSpace):
    """Interface shared by the two cone flavors; vectors are kept in the
    flavor's natural element type (Element or raw ndarray, the default).

    A cone is an atom space whose atoms are their own parameters and whose
    states are the pairing.  A flavor writes each kernel once, on (K, d)
    stacks or one generator per row: the stack forms of ``AtomSpace`` and
    those below (``inners`` defaults to the ambient dot product), plus
    ``ambient_dim`` and ``info_capacity``.  Each per-element method is the
    one-row case of its stack form, written here once; a raw array is
    checked through ``wrap`` first.
    """

    def as_vec(self, x) -> np.ndarray:
        """The coordinates of ``x``; a raw-array flavour has no model to
        check an element against, so any ``Element`` raises
        ``DimensionMismatchError``."""
        if isinstance(x, Element):
            raise DimensionMismatchError(f"{type(self).__name__} takes raw vectors, not an element")
        return np.asarray(x, dtype=float)

    def wrap(self, vec: np.ndarray):
        return np.asarray(vec, dtype=float)

    def _row(self, x) -> np.ndarray:
        """The stack (1, d) of one vector; a raw array is checked through
        ``wrap`` (an element's constructor on a spectral cone)."""
        checked = x if isinstance(x, Element) else self.wrap(self.as_vec(x))
        return self.as_vec(checked)[np.newaxis]

    _one_row = _row  # an atom is its own parameter

    def inners(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The pairing of the rows of two stacks (..., d) that broadcast."""
        return np.vecdot(xs, ys)

    def inner(self, x, y) -> float:
        return float(self.inners(self._row(x), self._row(y))[0])

    def cone_defect(self, x, tol: Tolerance = DEFAULT_TOL) -> float:
        return float(self.cone_defects(self._row(x), tol)[0])

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.cone_defect(x, tol) <= tol.cone_slack

    def atom_coords_batch(self, params) -> np.ndarray:
        return np.ascontiguousarray(params, dtype=float)

    def atom_params_from_coords(self, stack) -> np.ndarray:
        return np.asarray(stack, dtype=float)

    def state_values(self, params, coords) -> np.ndarray:
        return self.inners(params, coords)

    def complement_coords(self, e, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        return list(self.complements(self._row(e), tol)[0])

    @abstractmethod
    def split_orthogonal_batch(self, stack: np.ndarray, tol: Tolerance, scales: np.ndarray):
        """The atom oracle on the rows of a (K, d) stack, as the model
        contract's ``split_orthogonal_batch``: heads, rests and the mask of
        the rows that are (numerically) a positive multiple of an atom.  A
        row is a remainder of the element being peeled, whose norm is that
        row of ``scales``."""

    def split_orthogonal(self, x, tol: Tolerance = DEFAULT_TOL):
        """Two orthogonal positive parts of the coordinates ``x``, as
        coordinate arrays, or None if ``x`` is a positive multiple of an
        atom."""
        vec = self._row(x)
        heads, rests, single = self.split_orthogonal_batch(
            vec, tol, np.sqrt(np.abs(self.inners(vec, vec))))
        return None if single[0] else (heads[0], rests[0])

    @abstractmethod
    def frames(self, stack: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """Signed coefficients on pairwise-orthogonal atoms summing to each
        row of a (K, d) stack, as coefficients (K, m) and atom coordinates
        (K, m, d); a shorter frame is padded with zero coefficients on zero
        atoms."""

    def frame(self, x, tol: Tolerance = DEFAULT_TOL) -> list[PeeledAtom]:
        return _peeled(self, *self.frames(self._row(x), tol))

    @abstractmethod
    def moreau_parts(self, stack: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """The Moreau parts (plus, minus) of the rows of a (K, d) stack, as
        two (K, d) stacks: the formula behind ``moreau_decompose``."""

    @abstractmethod
    def frames_and_parts(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        """``frames`` and ``moreau_parts`` of a (K, d) stack from one
        decomposition of it, as ((values, atoms), (plus, minus))."""

    @abstractmethod
    def random_element_batch(self, rngs) -> np.ndarray:
        """An element drawn from each generator, as a (K, d) stack."""

    @abstractmethod
    def random_positive_batch(self, rngs) -> np.ndarray:
        """A cone element drawn from each generator, as a (K, d) stack."""

    def random_element(self, rng: np.random.Generator):
        return self.wrap(self.random_element_batch([rng])[0])

    def random_positive(self, rng: np.random.Generator):
        return self.wrap(self.random_positive_batch([rng])[0])

    def moreau(self, a, tol: Tolerance = DEFAULT_TOL) -> MoreauPair:
        plus, minus = self.moreau_parts(self._row(a), tol)
        return MoreauPair(self.wrap(plus[0]), self.wrap(minus[0]))

    def extreme_generators(self) -> np.ndarray:
        """Unit generators (r, d) of the cone's extreme rays where the cone
        is given by finitely many; a spectral cone, whose atoms in general
        form a continuum, gives an empty (0, d) stack."""
        return np.zeros((0, self.ambient_dim))

    def on_extreme_ray(self, e, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether ``e``, of unit self-pairing, is positive and indecomposable."""
        coeffs = self.frames(self._row(e), tol)[0][0]
        return bool(coeffs.min() >= -tol.cone_slack and np.sum(np.abs(coeffs) > 1e-7) == 1)


def _signed_parts(values: np.ndarray, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Moreau parts of a stack of frames ((K, m), (K, m, d)): the
    nonnegative coefficients on the plus part and the negated negative ones
    on the minus part, each summed from zeros in frame order.  A coefficient
    of the other sign adds a zero, which leaves a sum that starts from +0.0
    unchanged."""
    plus = values >= 0.0
    return (resum(values, np.where(plus, values, 0.0), atoms),
            resum(values, np.where(plus, 0.0, -values), atoms))


# ---------------------------------------------------------------------------
# spectral cones
# ---------------------------------------------------------------------------


class SpectralSelfDualCone(SelfDualCone):
    """Positive cone of a backend with symmetric transition probability,
    carrying the self-dualizing inner product."""

    def __init__(self, model: Model):
        if not model.symmetric_tp:
            raise UnsupportedModelError(
                "spectral self-dual cones need a symmetric transition probability")
        self.model = model

    @property
    def ambient_dim(self) -> int:
        return self.model.ambient_dim

    @property
    def info_capacity(self) -> int:
        return self.model.info_capacity

    def as_vec(self, x) -> np.ndarray:
        """The coordinates of ``x``; an element of another model raises
        ``DimensionMismatchError``."""
        if isinstance(x, Element):
            return self.model.check_element(x).coords
        return np.asarray(x, dtype=float)

    def wrap(self, vec: np.ndarray) -> Element:
        return self.model.element(vec)

    def inners(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.model.native_pairings(xs, ys)

    def cone_defects(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return self.model.cone_defects(stack, tol)

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        return self.model.atom_coords_batch(self.model.random_atom_param_batch(rngs))

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        return self.model.atom_coords_batch(self.model.random_frame_params_batch(rngs))

    def complements(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        """The peeled atoms of unit - e, from one stacked peel."""
        rests = self.model.order_unit().coords - stack
        # the complement of an atom has norm 0 (capacity one) or at least 1,
        # so clip subtraction noise against the unit scale before peeling
        clipped = np.sqrt(np.abs(self.inners(rests, rests))) <= 1e3 * tol.check_tol
        values, atoms = peel_positive(self, rests[~clipped], tol)
        out = [np.zeros((0, self.ambient_dim))] * len(stack)
        for k, row, count in zip(np.flatnonzero(~clipped), atoms,
                                 np.count_nonzero(values, axis=1).tolist()):
            out[k] = row[:count]
        return out

    def random_element_batch(self, rngs) -> np.ndarray:
        return _random_element(self.model, rngs)

    def random_positive_batch(self, rngs) -> np.ndarray:
        return _random_element(self.model, rngs, "positive")

    def split_orthogonal_batch(self, stack: np.ndarray, tol: Tolerance, scales: np.ndarray):
        # the kernel's cutoffs are relative to each row's own trace
        return self.model.split_orthogonal_batch(stack, tol)

    def frames(self, stack: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        return self.model.decompose_batch(stack, tol)

    def frames_and_parts(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        frames = self.frames(stack, tol)
        return frames, _signed_parts(*frames)

    def moreau_parts(self, stack: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        return self.frames_and_parts(stack, tol)[1]


# ---------------------------------------------------------------------------
# finitely generated cones
# ---------------------------------------------------------------------------


def nonnegative_fit(matrix: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients c >= 0 minimising |matrix @ c - target|, and the residual
    |matrix @ c - target| of those coefficients, which scipy's own reported
    residual can read below.  The package's one NNLS call; a stall raises
    scipy's ``RuntimeError``."""
    import scipy.optimize

    rows, cols = matrix.shape
    coeffs, _ = scipy.optimize.nnls(matrix, target, maxiter=max(10 * rows**2, 3 * cols))
    return coeffs, float(np.linalg.norm(matrix @ coeffs - target))


class GeneratorSelfDualCone(SelfDualCone):
    """Cone of nonnegative combinations of the rows of a generator matrix,
    with the ambient dot product.

    Self-duality itself is a property to be *witnessed* (see
    ``self_duality_report``), not assumed by construction.  The rows are
    scaled to unit length once, since scaling a generator leaves the cone
    unchanged; every cutoff below is then relative to unit generators.  Of
    unit generators closer than 1e-7 to each other only the first is kept:
    they differ by noise, and would split NNLS coefficients between them.  The
    cutoff is on the chord, which float64 resolves where 1 - cosine (half its
    square) does not; generators at a larger angle change the cone, and stay.
    """

    def __init__(self, generators: np.ndarray):
        gen = np.atleast_2d(np.asarray(generators, dtype=float))
        if gen.ndim != 2 or gen.shape[0] < 1:
            raise ValueError("generator matrix must have one generator per row")
        if not np.isfinite(gen).all():
            raise ValueError("generators must be finite")
        norms = np.linalg.norm(gen, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero generator")
        unit = gen / norms[:, None]
        keep = []
        for j, row in enumerate(unit):
            if np.all(np.linalg.norm(unit[keep] - row, axis=1) >= 1e-7):
                keep.append(j)
        self.generators = unit[keep]
        self._extreme = self._extreme_mask()
        if not self._extreme.any():
            raise ValueError("no generator spans an extreme ray (the cone contains a line), "
                             "so the cone has no atoms")
        self.info_capacity = len(self._extend_orthogonally([], self.extreme_generators()))

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    def _extreme_mask(self) -> np.ndarray:
        """Generators not expressible as nonnegative combinations of the
        others."""
        gen = self.generators
        mask = np.ones(len(gen), dtype=bool)
        if len(gen) == 1:  # no others, and NNLS aborts on an empty matrix
            return mask
        for j in range(len(gen)):
            if nonnegative_fit(np.delete(gen, j, axis=0).T, gen[j])[1] <= 1e-8:
                mask[j] = False
        return mask

    def nnls_fit(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        """``nonnegative_fit`` of the generators to ``target``.  G^T c lies in
        the cone, so the residual bounds the distance to it from above."""
        try:
            return nonnegative_fit(self.generators.T, target)
        except RuntimeError as exc:
            raise ConeProjectionError(f"nonnegative least squares stalled: {exc}") from exc

    def cone_defects(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        # the distance to the cone relative to max(|x|, 1), in hundredths:
        # an NNLS residual carries more rounding than an eigenvalue
        stack = np.asarray(stack, dtype=float)
        residuals = np.array([self.nnls_fit(x)[1] for x in stack])
        return residuals / (1e2 * np.maximum(row_norms(stack), 1.0))

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the cone."""
        return self.generators.T @ self.nnls_fit(self.as_vec(x))[0]

    def _projections(self, stack: np.ndarray) -> np.ndarray:
        """``project`` of each row of a (K, d) stack."""
        return np.array([self.project(x) for x in stack]).reshape(stack.shape)

    def extreme_generators(self) -> np.ndarray:
        return self.generators[self._extreme]

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        ext = self.extreme_generators()
        return ext[[int(rng.integers(len(ext))) for rng in rngs]]

    @staticmethod
    def _extend_orthogonally(family: list, candidates) -> list[np.ndarray]:
        """Append each candidate (a unit generator) orthogonal to every member
        of ``family`` so far, to a cutoff relative to that member's norm."""
        for cand in candidates:
            if all(abs(np.dot(cand, f)) <= 1e-12 * np.linalg.norm(f) for f in family):
                family.append(cand)
        return family

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        ext = self.extreme_generators()
        families = [self._extend_orthogonally([], ext[rng.permutation(len(ext))])
                    for rng in rngs]
        out = np.zeros((len(families), max(map(len, families), default=0), self.ambient_dim))
        for row, family in zip(out, families):
            row[:len(family)] = family
        return out

    def complements(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        return [np.reshape(self._extend_orthogonally([e], self.extreme_generators())[1:],
                           (-1, self.ambient_dim)) for e in np.asarray(stack, dtype=float)]

    def random_element_batch(self, rngs) -> np.ndarray:
        return normal_draws(rngs, (self.ambient_dim,))

    def random_positive_batch(self, rngs) -> np.ndarray:
        # one matrix-vector product per row, which a stacked product may
        # round differently
        return np.array([self.generators.T @ np.abs(rng.normal(size=len(self.generators)))
                         for rng in rngs]).reshape(len(rngs), self.ambient_dim)

    def moreau_parts(self, stack: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        stack = np.asarray(stack, dtype=float)
        return self._moreau_checked(stack, self._projections(stack))

    def _moreau_checked(self, stack: np.ndarray, plus: np.ndarray):
        """The Moreau parts of the rows of ``stack`` from their projections
        ``plus``: the projection is the plus part when the Moreau conditions
        hold; the first row that fails them raises."""
        minus = plus - stack
        scale = np.maximum(row_norms(stack), 1.0)
        cross = np.abs(self.inners(plus, minus))
        dual_slack = np.min(minus @ self.generators.T, axis=1)
        failed = np.flatnonzero((cross > 1e-8 * scale**2) | (dual_slack < -1e-8 * scale))
        if len(failed):
            k = failed[0]
            raise ConeProjectionError(
                f"projection failed Moreau conditions (cross={cross[k]:.3e}, "
                f"dual slack={dual_slack[k]:.3e})", residual=float(cross[k]))
        return plus, minus

    def frames(self, stack: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        # the projections of x and -x are the Moreau parts exactly when the
        # cone is self-dual; unlike plus - x, a part that vanishes is at most
        # the rounding noise of one projection, which the peel skips
        stack = np.asarray(stack, dtype=float)
        return _peel_signed(self, stack, (self._projections(stack), self._projections(-stack)),
                            tol)

    def frames_and_parts(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        # one projection of each row serves its frame and its plus part
        stack = np.asarray(stack, dtype=float)
        plus = self._projections(stack)
        frames = _peel_signed(self, stack, (plus, self._projections(-stack)), tol)
        return frames, self._moreau_checked(stack, plus)

    def on_extreme_ray(self, e, tol: Tolerance = DEFAULT_TOL) -> bool:
        # the chord from the direction of e to an extreme unit generator,
        # whatever the scale of e, below the cutoff that merges generators
        vec = self.as_vec(e)
        norm = float(np.linalg.norm(vec))
        if not norm > 0.0:
            return False  # e = 0 is on no ray
        return bool(np.any(np.linalg.norm(self.extreme_generators() - vec / norm, axis=1) < 1e-7))

    def split_orthogonal_batch(self, stack: np.ndarray, tol: Tolerance, scales: np.ndarray):
        heads, rests = np.zeros_like(stack), np.zeros_like(stack)
        single = np.ones(len(stack), dtype=bool)
        for k, (vec, peeled) in enumerate(zip(stack, np.maximum(scales, 1e-30).tolist())):
            coeffs, residual = self.nnls_fit(vec)
            # the NNLS residual is rounding noise on the scale of the element
            # being peeled, however small its remainder
            if residual > 1e-7 * peeled:
                raise ConeProjectionError(
                    "orthogonal-split oracle needs a cone element", residual=residual)
            if coeffs.max() <= 0.0:
                continue
            active = np.flatnonzero(coeffs > 1e-12 * coeffs.max())
            if len(active) <= 1:
                continue
            scale = max(float(np.linalg.norm(vec)), 1e-30)
            for head_idx in active:
                head = coeffs[head_idx] * self.generators[head_idx]
                rest = vec - head
                if abs(np.dot(head, rest)) <= 1e-9 * scale**2:
                    heads[k], rests[k], single[k] = head, rest, False
                    break
            # with no orthogonal split among the active generators, the row
            # counts as one atom
        return heads, rests, single


def generator_cone_from_csv(path) -> GeneratorSelfDualCone:
    """Load a finitely generated cone: one generator per CSV row."""
    return GeneratorSelfDualCone(read_csv_rows(path))


# ---------------------------------------------------------------------------
# Moreau decomposition
# ---------------------------------------------------------------------------


def moreau_decompose(cone: SelfDualCone, a, tol: Tolerance = DEFAULT_TOL) -> MoreauPair:
    """Unique split a = a_plus - a_minus with both parts in the cone and
    <a_plus|a_minus> = 0; of each row of a (K, d) stack, a pair of stacks."""
    vec = cone.as_vec(a)
    if vec.ndim == 1:
        return cone.moreau(a, tol)
    return MoreauPair(*cone.moreau_parts(vec, tol))


# ---------------------------------------------------------------------------
# atoms and peeling
# ---------------------------------------------------------------------------


def is_atom_sd(cone: SelfDualCone, e, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Indecomposable positive element with unit self-pairing."""
    return abs(cone.inner(e, e) - 1.0) <= tol.check_tol and cone.on_extreme_ray(e, tol)


def _peeled(cone: SelfDualCone, values: np.ndarray, atoms: np.ndarray) -> list[PeeledAtom]:
    """The one frame of a stack of one, (1, m) and (1, m, d), as a list."""
    return [PeeledAtom(c, cone.wrap(e)) for c, e in zip(values[0].tolist(), atoms[0])]


def peel_positive(cone: SelfDualCone, a, tol: Tolerance = DEFAULT_TOL):
    """Represent a positive element as a sum of pairwise orthogonal atoms
    with positive coefficients, by recursion on the cone's orthogonal split.

    The rows of a (K, d) stack are peeled together, one
    ``split_orthogonal_batch`` call per step for the rows not yet done; the
    result is the padded frames of ``SelfDualCone.frames``, coefficients
    (K, m) and atoms (K, m, d), each row's atoms in the order they were
    split off.  One element gives its list of ``PeeledAtom``, the one-row
    case.  The step budget and the cutoffs hold row by row: a row is done
    when its remainder's norm is at most 1e-10 of its own, and a head of
    norm at most 1e-12 of it is dropped.
    """
    vec = cone.as_vec(a)
    if vec.ndim == 1:
        return _peeled(cone, *peel_positive(cone, vec[np.newaxis], tol))
    current = np.array(vec, dtype=float)
    found = []  # per step: the rows that gained an atom, its column, coefficient and coordinates
    count = np.zeros(len(current), dtype=np.intp)
    squares = cone.inners(current, current)
    norms = np.sqrt(np.abs(squares))
    scale = np.maximum(norms, 1e-30)
    todo = np.flatnonzero(norms > 1e-10 * scale)
    for _ in range(4 * cone.ambient_dim + 8):
        if not len(todo):
            break
        heads, rests, single = cone.split_orthogonal_batch(current[todo], tol, scale[todo])
        # a multiple of one atom is its own last atom
        done = todo[single]
        last = np.sqrt(squares[done])
        todo, heads = todo[~single], heads[~single]
        current[todo] = rests[~single]
        s = np.sqrt(cone.inners(heads, heads))
        kept = s > 1e-12 * scale[todo]
        rows = np.concatenate((done, todo[kept]))
        found.append((rows, count[rows], np.concatenate((last, s[kept])),
                      np.concatenate((current[done] / last[:, np.newaxis],
                                      heads[kept] / s[kept, np.newaxis]))))
        count[rows] += 1
        squares[todo] = cone.inners(current[todo], current[todo])
        todo = todo[np.sqrt(np.abs(squares[todo])) > 1e-10 * scale[todo]]
    if len(todo):
        raise ConeProjectionError("peeling did not terminate (oracle failure)")
    values = np.zeros((len(current), count.max(initial=0)))
    atoms = np.zeros(values.shape + (cone.ambient_dim,))
    for rows, cols, s, peeled in found:
        values[rows, cols] = s
        atoms[rows, cols] = peeled
    return values, atoms


def _peel_signed(cone: SelfDualCone, stack: np.ndarray, parts, tol: Tolerance):
    """The frames of the rows of a (K, d) stack from its two (K, d) stacks
    of positive parts, plus and minus, as one padded frame per row: the
    atoms peeled from the plus part, then those of the minus part with
    negated coefficients, in one stacked ``peel_positive``.

    A part whose norm is at most 1e-10 of its row's (the cutoff
    ``peel_positive`` applies to its own remainder) is rounding noise, such
    as the minus part of a cone element, and is skipped: peeled relative to
    its own norm, it would give spurious atoms or fail the split oracle.
    """
    scale = np.sqrt(np.abs(cone.inners(stack, stack)))
    rows = [np.flatnonzero(np.sqrt(np.abs(cone.inners(part, part))) > 1e-10 * scale)
            for part in parts]
    values, atoms = peel_positive(
        cone, np.concatenate([part[at] for part, at in zip(parts, rows)]), tol)
    plus = len(rows[0])
    # each row's plus and minus frames side by side; 0 - c negates a
    # coefficient exactly and keeps the padding +0.0
    signed = np.zeros((len(stack), 2, values.shape[1]))
    frames = np.zeros(signed.shape + (cone.ambient_dim,))
    signed[rows[0], 0], frames[rows[0], 0] = values[:plus], atoms[:plus]
    signed[rows[1], 1], frames[rows[1], 1] = 0.0 - values[plus:], atoms[plus:]
    signed = signed.reshape(len(signed), 2 * values.shape[1])
    frames = frames.reshape(signed.shape + (cone.ambient_dim,))
    # the padding moves behind the atoms, which keep their order
    width = np.count_nonzero(signed, axis=1).max(initial=0)
    at = (np.arange(len(signed))[:, np.newaxis],
          np.argsort(signed == 0.0, axis=1, kind="stable")[:, :width])
    return signed[at], frames[at]


def peel_spectral(cone: SelfDualCone, a, tol: Tolerance = DEFAULT_TOL):
    """Atom representation of an arbitrary element: route through the Moreau
    split, then peel both positive parts (``_peel_signed``, which skips a
    part that is rounding noise).  A (K, d) stack gives padded frames, the
    plus part's atoms first in each row, as ``peel_positive`` does; one
    element its list of ``PeeledAtom``.
    """
    vec = cone.as_vec(a)
    if vec.ndim == 1:
        return _peeled(cone, *peel_spectral(cone, vec[np.newaxis], tol))
    pair = moreau_decompose(cone, vec, tol)
    return _peel_signed(cone, vec, (pair.a_plus, pair.a_minus), tol)


# ---------------------------------------------------------------------------
# order-unit recovery
# ---------------------------------------------------------------------------


def recover_order_unit(cone: SelfDualCone, seed: int):
    """Sum of the maximal orthogonal atom family drawn from ``trial_rng(seed, 0)``.

    That every maximal family resolves this one element, and that atoms pair
    to 1 with it, is what ``suites.verify_unity_resolution`` checks.
    """
    family = cone.random_frame_params_batch([trial_rng(seed, 0)])
    ones = np.ones(family.shape[:2])
    return cone.wrap(resum(ones, ones, family)[0])

"""Euclidean spaces with self-dual cones: Moreau splits, atom peeling,
order-unit recovery and the self-duality verifier.

Two cone flavors are supported:

  * spectral cones wrapping a backend with symmetric transition probability
    (the inner product is the backend's native pairing), and
  * finitely generated cones given by a generator matrix, with the ambient
    dot product (membership and projection via nonnegative least squares).

Arbitrary membership-oracle cones are out of scope: atom indecomposability
is not decidable from membership alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends.base import Model
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import ConeProjectionError, UnsupportedModelError
from .reports import CheckResult
from .spectral import _random_element, trial_rng, worst


@dataclass(frozen=True)
class MoreauPair:
    """Orthogonal positive split a = a_plus - a_minus."""

    a_plus: object
    a_minus: object


@dataclass(frozen=True)
class PeeledAtom:
    coefficient: float
    atom: object


class SelfDualCone:
    """Interface shared by the two cone flavors; vectors are kept in the
    flavor's natural element type (Element or raw ndarray).  The defaults are
    raw ndarrays with the ambient dot product, and the atom test reads off
    the flavor's frame.

    A cone is also an atom space, so the atom verifiers of ``transition``
    run on it as on a model: an atom is its own parameter, and its state is
    the pairing.  The batch samplers and state values follow the model
    contract (``backends/base.py``).  Besides the methods below, a flavor
    supplies ``ambient_dim``, ``info_capacity``, ``random_atom_param``,
    ``random_element`` and ``random_positive``.

    The stack forms (``inners``, ``cone_defects``, ``frames``,
    ``moreau_parts``, ``complements`` and ``split_orthogonal_batch``) take
    the rows of (K, d) coordinate stacks.  The defaults of ``inners``,
    ``cone_defects`` and ``moreau_parts`` call the per-element method on
    each row in turn; ``frame``, ``complement_coords`` and
    ``split_orthogonal`` are the one-row cases of their stack forms.
    """

    def as_vec(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def wrap(self, vec: np.ndarray):
        return np.asarray(vec, dtype=float)

    def inner(self, x, y) -> float:
        return float(np.dot(self.as_vec(x), self.as_vec(y)))

    def inners(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``inner`` of the rows of two stacks (..., d) that broadcast."""
        xs, ys = np.broadcast_arrays(xs, ys)
        out = np.empty(xs.shape[:-1])
        for idx in np.ndindex(out.shape):
            out[idx] = self.inner(xs[idx], ys[idx])
        return out

    def cone_defect(self, x, tol: Tolerance = DEFAULT_TOL) -> float:
        """How far ``x`` lies outside the cone, 0 inside it."""
        raise NotImplementedError

    def cone_defects(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return np.array([self.cone_defect(x, tol) for x in stack], dtype=float)

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.cone_defect(x, tol) <= tol.cone_slack

    def atom_coords(self, param) -> np.ndarray:
        return self.as_vec(param)

    def atom_coords_batch(self, params) -> np.ndarray:
        return np.ascontiguousarray(params, dtype=float)

    def atom_param_from_coords(self, coords) -> np.ndarray:
        return self.as_vec(coords)

    def state_value(self, param, coords) -> float:
        return self.inner(param, coords)

    def state_values(self, params, coords) -> np.ndarray:
        return self.inners(params, coords)

    transition_from_params = state_value  # an atom is its own parameter
    transitions_from_params = state_values

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        """``random_atom_param`` of each generator, as a (K, d) stack."""
        return np.array([self.random_atom_param(rng) for rng in rngs],
                        dtype=float).reshape(len(rngs), self.ambient_dim)

    def random_frame_params(self, rng: np.random.Generator) -> list[np.ndarray]:
        """A random maximal pairwise-orthogonal family of atoms."""
        raise NotImplementedError

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        """``random_frame_params`` of each generator, as a (K, m, d) stack;
        a shorter family is padded with zero atoms (no atom is zero), whose
        pairings are zero and add nothing to a sum that starts from zero."""
        families = [self.random_frame_params(rng) for rng in rngs]
        out = np.zeros((len(families), max(map(len, families), default=0), self.ambient_dim))
        for row, family in zip(out, families):
            row[:len(family)] = np.reshape(family, (len(family), self.ambient_dim))
        return out

    def complements(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        """For the atom e in each row of a (K, d) stack, the atoms (n, d)
        completing it to a maximal pairwise-orthogonal family."""
        raise NotImplementedError

    def complement_coords(self, e, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        """The atoms completing one atom ``e``: the one-row case of
        ``complements``."""
        return list(self.complements(self.as_vec(e)[np.newaxis], tol)[0])

    def split_orthogonal_batch(self, stack: np.ndarray, tol: Tolerance, scales: np.ndarray):
        """The atom oracle on the rows of a (K, d) stack, as the model
        contract's ``split_orthogonal_batch``: heads, rests and the mask of
        the rows that are (numerically) a positive multiple of an atom.  A
        row is a remainder of the element being peeled, whose norm is that
        row of ``scales``."""
        raise NotImplementedError

    def split_orthogonal(self, x, tol: Tolerance = DEFAULT_TOL):
        """Two orthogonal positive parts of the coordinates ``x``, as
        coordinate arrays, or None if ``x`` is a positive multiple of an
        atom: the one-row case of ``split_orthogonal_batch``."""
        vec = self.as_vec(x)[np.newaxis]
        heads, rests, single = self.split_orthogonal_batch(
            vec, tol, np.sqrt(np.abs(self.inners(vec, vec))))
        return None if single[0] else (heads[0], rests[0])

    def frame(self, x, tol: Tolerance = DEFAULT_TOL) -> list[PeeledAtom]:
        """Signed coefficients on pairwise-orthogonal atoms summing to ``x``:
        the one-row case of ``frames``."""
        return _peeled(self, *self.frames(self.as_vec(x)[np.newaxis], tol))

    def frames(self, stack: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """The frames of the rows of a (K, d) stack as coefficients (K, m)
        and atom coordinates (K, m, d); a shorter frame is padded with zero
        coefficients on zero atoms."""
        raise NotImplementedError

    def moreau(self, a, tol: Tolerance = DEFAULT_TOL) -> MoreauPair:
        """The formula behind ``moreau_decompose``."""
        raise NotImplementedError

    def moreau_parts(self, stack: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """The Moreau parts (plus, minus) of the rows of a (K, d) stack, as
        two (K, d) stacks."""
        pairs = [self.moreau(x, tol) for x in stack]
        return (np.array([self.as_vec(p.a_plus) for p in pairs]),
                np.array([self.as_vec(p.a_minus) for p in pairs]))

    def on_extreme_ray(self, e, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether ``e``, of unit self-pairing, is positive and indecomposable."""
        coeffs = np.array([p.coefficient for p in self.frame(e, tol)])
        return bool(coeffs.min() >= -tol.cone_slack and np.sum(np.abs(coeffs) > 1e-7) == 1)


def _signed_parts(values: np.ndarray, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Moreau parts of one frame (values (m,), atoms (m, d)) or of a
    stack of frames ((K, m), (K, m, d)): the nonnegative coefficients on the
    plus part and the negated negative ones on the minus part, each summed
    from zeros in frame order.  A coefficient of the other sign adds a zero,
    which leaves a sum that starts from +0.0 unchanged."""
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
        return x.coords if isinstance(x, Element) else np.asarray(x, dtype=float)

    def wrap(self, vec: np.ndarray) -> Element:
        return self.model.element(vec)

    def inner(self, x, y) -> float:
        return self.model.native_pairing(self.as_vec(x), self.as_vec(y))

    def inners(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.model.native_pairings(xs, ys)

    def cone_defect(self, x, tol: Tolerance = DEFAULT_TOL) -> float:
        return self.model.cone_defect(self.as_vec(x), tol)

    def cone_defects(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return self.model.cone_defects(stack, tol)

    def random_atom_param_batch(self, rngs) -> np.ndarray:
        return self.model.atom_coords_batch(self.model.random_atom_param_batch(rngs))

    def random_frame_params_batch(self, rngs) -> np.ndarray:
        return self.model.atom_coords_batch(self.model.random_frame_params_batch(rngs))

    def random_atom_param(self, rng: np.random.Generator) -> np.ndarray:
        return self.random_atom_param_batch([rng])[0]

    def random_frame_params(self, rng: np.random.Generator) -> list[np.ndarray]:
        return list(self.random_frame_params_batch([rng])[0])

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

    def random_element(self, rng: np.random.Generator) -> Element:
        return _random_element(self.model, rng)

    def random_positive(self, rng: np.random.Generator) -> Element:
        return _random_element(self.model, rng, "positive")

    def split_orthogonal_batch(self, stack: np.ndarray, tol: Tolerance, scales: np.ndarray):
        # the kernel's cutoffs are relative to each row's own trace
        return self.model.split_orthogonal_batch(stack, tol)

    def _form(self, x, tol: Tolerance):
        # an element is already checked; only a raw array needs wrapping
        a = x if isinstance(x, Element) else self.wrap(self.as_vec(x))
        return self.model.spectral_form(a, tol)

    def frame(self, x, tol: Tolerance = DEFAULT_TOL) -> list[PeeledAtom]:
        form = self._form(x, tol)
        return list(map(PeeledAtom, form.eigenvalues.tolist(), form.atom_coords))

    def frames(self, stack: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        return self.model.decompose_batch(stack, tol)

    def moreau(self, a, tol: Tolerance = DEFAULT_TOL) -> MoreauPair:
        form = self._form(a, tol)
        plus, minus = _signed_parts(form.eigenvalues, form.atom_coords)
        return MoreauPair(self.wrap(plus), self.wrap(minus))

    def moreau_parts(self, stack: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        return _signed_parts(*self.frames(stack, tol))


# ---------------------------------------------------------------------------
# finitely generated cones
# ---------------------------------------------------------------------------


class GeneratorSelfDualCone(SelfDualCone):
    """Cone of nonnegative combinations of the rows of a generator matrix,
    with the ambient dot product.

    Self-duality itself is a property to be *witnessed* (see
    ``self_duality_report``), not assumed by construction.  The rows are
    scaled to unit length once, since scaling a generator leaves the cone
    unchanged; every cutoff below is then relative to unit generators.
    """

    def __init__(self, generators: np.ndarray):
        gen = np.atleast_2d(np.asarray(generators, dtype=float))
        if gen.ndim != 2 or gen.shape[0] < 1:
            raise ValueError("generator matrix must have one generator per row")
        norms = np.linalg.norm(gen, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero generator")
        self.generators = gen / norms[:, None]
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
        other, non-parallel generators."""
        import scipy.optimize

        gen = self.generators
        mask = np.ones(len(gen), dtype=bool)
        for j in range(len(gen)):
            cos = gen @ gen[j]
            others = [i for i in range(len(gen)) if i != j and cos[i] < 1.0 - 1e-9]
            if not others:
                continue
            coeffs, residual = scipy.optimize.nnls(gen[others].T, gen[j])
            if residual <= 1e-8:
                mask[j] = False
        return mask

    def nnls_fit(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        import scipy.optimize

        maxiter = max(10 * self.ambient_dim**2, 3 * len(self.generators))
        try:
            coeffs, residual = scipy.optimize.nnls(self.generators.T, target, maxiter=maxiter)
        except RuntimeError as exc:
            raise ConeProjectionError(f"nonnegative least squares stalled: {exc}") from exc
        return coeffs, float(residual)

    def cone_defect(self, x, tol: Tolerance = DEFAULT_TOL) -> float:
        # the distance to the cone relative to max(|x|, 1), in hundredths:
        # an NNLS residual carries more rounding than an eigenvalue
        vec = self.as_vec(x)
        return self.nnls_fit(vec)[1] / (1e2 * max(float(np.linalg.norm(vec)), 1.0))

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the cone."""
        return self.generators.T @ self.nnls_fit(self.as_vec(x))[0]

    def extreme_generators(self) -> np.ndarray:
        return self.generators[self._extreme]

    def random_atom_param(self, rng: np.random.Generator) -> np.ndarray:
        ext = self.extreme_generators()
        return ext[int(rng.integers(len(ext)))]

    @staticmethod
    def _extend_orthogonally(family: list, candidates) -> list[np.ndarray]:
        """Append each candidate (a unit generator) orthogonal to every member
        of ``family`` so far, to a cutoff relative to that member's norm."""
        for cand in candidates:
            if all(abs(np.dot(cand, f)) <= 1e-12 * np.linalg.norm(f) for f in family):
                family.append(cand)
        return family

    def random_frame_params(self, rng: np.random.Generator) -> list[np.ndarray]:
        ext = self.extreme_generators()
        return self._extend_orthogonally([], ext[rng.permutation(len(ext))])

    def complements(self, stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        return [np.reshape(self._extend_orthogonally([e], self.extreme_generators())[1:],
                           (-1, self.ambient_dim)) for e in np.asarray(stack, dtype=float)]

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.ambient_dim)

    def random_positive(self, rng: np.random.Generator) -> np.ndarray:
        return self.generators.T @ np.abs(rng.normal(size=len(self.generators)))

    def moreau(self, a, tol: Tolerance = DEFAULT_TOL) -> MoreauPair:
        vec = self.as_vec(a)
        plus = self.project(vec)
        minus = plus - vec
        scale = max(float(np.linalg.norm(vec)), 1.0)
        cross = abs(self.inner(plus, minus))
        dual_slack = float(np.min(self.generators @ minus))
        if cross > 1e-8 * scale**2 or dual_slack < -1e-8 * scale:
            raise ConeProjectionError(
                f"projection failed Moreau conditions (cross={cross:.3e}, "
                f"dual slack={dual_slack:.3e})", residual=cross)
        return MoreauPair(plus, minus)

    def frames(self, stack: np.ndarray,
               tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        # the projections of x and -x are the Moreau parts exactly when the
        # cone is self-dual, and unlike plus - x they carry no rounding noise
        stack = np.asarray(stack, dtype=float)
        parts = [np.array([self.project(x) for x in rows]).reshape(stack.shape)
                 for rows in (stack, -stack)]
        every = np.ones(len(stack), dtype=bool)
        return _peel_signed(self, parts, (every, every), tol)

    def on_extreme_ray(self, e, tol: Tolerance = DEFAULT_TOL) -> bool:
        # the cosine with a unit generator, whatever the scale of e; e = 0 is on no ray
        vec = self.as_vec(e)
        return bool(np.any(self.extreme_generators() @ vec > (1.0 - 1e-9) * np.linalg.norm(vec)))

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
    gen = np.loadtxt(path, delimiter=",", ndmin=2)
    return GeneratorSelfDualCone(gen)


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


def _peel_signed(cone: SelfDualCone, parts, kept, tol: Tolerance):
    """The frames of the rows of two (K, d) stacks of positive parts, plus
    and minus, as one padded frame per row: the atoms peeled from the plus
    part, then those of the minus part with negated coefficients.  Only the
    rows in ``kept`` (a (K,) mask per part) are peeled, in one stacked
    ``peel_positive``."""
    rows = [np.flatnonzero(mask) for mask in kept]
    values, atoms = peel_positive(
        cone, np.concatenate([part[at] for part, at in zip(parts, rows)]), tol)
    plus = len(rows[0])
    # each row's plus and minus frames side by side; 0 - c negates a
    # coefficient exactly and keeps the padding +0.0
    signed = np.zeros((len(parts[0]), 2, values.shape[1]))
    frames = np.zeros(signed.shape + (cone.ambient_dim,))
    signed[rows[0], 0], frames[rows[0], 0] = values[:plus], atoms[:plus]
    signed[rows[1], 1], frames[rows[1], 1] = 0.0 - values[plus:], atoms[plus:]
    signed = signed.reshape(len(signed), -1)
    frames = frames.reshape(signed.shape + (cone.ambient_dim,))
    # the padding moves behind the atoms, which keep their order
    width = np.count_nonzero(signed, axis=1).max(initial=0)
    at = (np.arange(len(signed))[:, np.newaxis],
          np.argsort(signed == 0.0, axis=1, kind="stable")[:, :width])
    return signed[at], frames[at]


def peel_spectral(cone: SelfDualCone, a, tol: Tolerance = DEFAULT_TOL):
    """Atom representation of an arbitrary element: route through the Moreau
    split, then peel both positive parts.

    A part whose norm is at most 1e-10 of the input's (the cutoff
    ``peel_positive`` applies to its own remainder) is rounding noise, such as
    the minus part of a cone element, and is skipped: peeled relative to its
    own norm, it would give spurious atoms or fail the split oracle.  A
    (K, d) stack gives padded frames, the plus part's atoms first in each
    row, as ``peel_positive`` does; one element its list of ``PeeledAtom``.
    """
    vec = cone.as_vec(a)
    if vec.ndim == 1:
        return _peeled(cone, *peel_spectral(cone, vec[np.newaxis], tol))
    pair = moreau_decompose(cone, vec, tol)
    scale = np.sqrt(np.abs(cone.inners(vec, vec)))
    parts = (pair.a_plus, pair.a_minus)
    kept = [np.sqrt(np.abs(cone.inners(part, part))) > 1e-10 * scale for part in parts]
    return _peel_signed(cone, parts, kept, tol)


# ---------------------------------------------------------------------------
# order-unit recovery and self-duality
# ---------------------------------------------------------------------------


def recover_order_unit(cone: SelfDualCone, seed: int):
    """Sum of the maximal orthogonal atom family drawn from ``trial_rng(seed, 0)``.

    That every maximal family resolves this one element, and that atoms pair
    to 1 with it, is what ``transition.verify_unity_resolution`` checks.
    """
    family = cone.random_frame_params(trial_rng(seed, 0))
    return cone.wrap(sum(cone.as_vec(e) for e in family))


def self_duality_report(cone: SelfDualCone, seed: int, trials: int,
                        tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Witness both inclusions of self-duality on samples.

    The cone lies in its dual when cone elements pair nonnegatively; the
    dual lies in the cone when the frame pairings of an element recover its
    coefficients, so that their signs decide membership, and when Moreau
    minus parts (dual vectors) lie in the cone.  Each trial draws from
    ``trial_rng(seed, k)``; the pairings, frames, Moreau parts and cone
    defects of all trials then come from the cone's stack forms.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draws = []  # per trial: a, b, c, the witness and its negative atom
    for k in range(trials):
        rng = trial_rng(seed, k)
        a = cone.random_positive(rng)
        b = cone.random_positive(rng)
        c = cone.random_element(rng)
        # witness: one negative coefficient on a maximal family pairs
        # negatively with its own atom
        family = cone.random_frame_params(rng)
        coeffs = np.abs(rng.normal(size=len(family))) + 0.1
        neg = int(rng.integers(len(family)))
        coeffs[neg] = -0.1 - abs(rng.normal())
        bad = sum(w * cone.as_vec(f) for w, f in zip(coeffs, family))
        draws.append([cone.as_vec(x) for x in (a, b, c, bad, family[neg])])
    a, b, c, bad, neg_atom = np.array(list(zip(*draws)))
    forward = worst(-cone.inners(a, b))
    values, atoms = cone.frames(c, tol)
    pairings = cone.inners(atoms, c[:, np.newaxis])
    reverse = worst(np.abs(pairings - values).ravel())
    plus, minus = cone.moreau_parts(c, tol)
    contained = cone.cone_defects(np.concatenate((c, minus)), tol) <= tol.cone_slack
    mismatches = np.sum((pairings >= -tol.cone_slack).all(axis=1) != contained[:trials])
    witness_defect = 0.0
    witness: tuple | None = None
    for row, pairing in zip(bad, (cone.inners(bad, neg_atom) + 0.05).tolist()):
        if pairing > witness_defect:
            witness_defect, witness = pairing, tuple(row)
    plus_pairing = worst(-cone.inners(plus, a))
    dual_in_cone = 0.0 if contained[trials:].all() else 1.0
    return [
        CheckResult("selfdual.forward", forward, tol.check_tol,
                    note="<a|b> >= 0 for sampled positive pairs"),
        CheckResult("selfdual.reverse", reverse, tol.check_tol,
                    note="frame pairings recover eigenvalues"),
        CheckResult("selfdual.membership_agreement", float(mismatches), 0.0),
        CheckResult("selfdual.negative_witness", witness_defect, 0.0, witness=witness,
                    note="one negative eigenvalue yields a strictly negative pairing"),
        CheckResult("selfdual.cone_pairings_nonnegative", plus_pairing, tol.check_tol),
        CheckResult("selfdual.dual_vectors_in_cone", dual_in_cone, 0.0),
    ]


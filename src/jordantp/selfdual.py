"""Euclidean spaces with self-dual cones: Moreau splits, atom peeling,
order-unit recovery and the unity-resolution / certainty-order verifiers.

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
from typing import Callable, Sequence

import numpy as np

from .backends.base import Model
from .elements import DEFAULT_TOL, Element, Tolerance
from .errors import ConeProjectionError, TransitionProbabilityViolation, UnsupportedModelError
from .reports import CheckResult
from .spectral import trial_rng


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
    flavor's natural element type (Element or raw ndarray)."""

    @property
    def ambient_dim(self) -> int:
        raise NotImplementedError

    def as_vec(self, x) -> np.ndarray:
        raise NotImplementedError

    def wrap(self, vec: np.ndarray):
        raise NotImplementedError

    def inner(self, x, y) -> float:
        raise NotImplementedError

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        raise NotImplementedError

    def random_atom(self, rng: np.random.Generator):
        raise NotImplementedError

    def random_maximal_family(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def complement_atoms(self, e, tol: Tolerance = DEFAULT_TOL) -> list:
        """Atoms completing ``e`` to a maximal pairwise-orthogonal family."""
        raise NotImplementedError

    def random_element(self, rng: np.random.Generator):
        raise NotImplementedError

    def split_orthogonal(self, x, tol: Tolerance = DEFAULT_TOL):
        """Default atom oracle: two orthogonal positive parts, or None if
        ``x`` is (numerically) a positive multiple of an atom."""
        raise NotImplementedError


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

    def as_vec(self, x) -> np.ndarray:
        return x.coords if isinstance(x, Element) else np.asarray(x, dtype=float)

    def wrap(self, vec: np.ndarray) -> Element:
        return self.model.element(vec)

    def inner(self, x, y) -> float:
        return self.model.native_pairing(self.as_vec(x), self.as_vec(y))

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        eigs = self.model.eigenvalues_coords(self.as_vec(x), tol)
        return bool(eigs.min() >= -tol.cone_slack)

    def order_unit(self) -> Element:
        return self.model.order_unit()

    def random_atom(self, rng: np.random.Generator) -> Element:
        return self.model.atom(self.model.random_atom_param(rng))

    def random_maximal_family(self, rng: np.random.Generator) -> list[Element]:
        return [self.model.atom(p) for p in self.model.random_frame_params(rng)]

    def complement_atoms(self, e, tol: Tolerance = DEFAULT_TOL) -> list[Element]:
        rest = self.model.order_unit() - e
        # the complement of an atom has norm 0 (capacity one) or at least 1,
        # so clip subtraction noise against the unit scale before peeling
        if np.sqrt(abs(self.inner(rest, rest))) <= 1e3 * tol.check_tol:
            return []
        return [p.atom for p in peel_positive(self, rest, tol=tol)]

    def random_element(self, rng: np.random.Generator) -> Element:
        from .spectral import _random_element

        return _random_element(self.model, rng)

    def split_orthogonal(self, x, tol: Tolerance = DEFAULT_TOL):
        parts = self.model.split_orthogonal_coords(self.as_vec(x), tol)
        return None if parts is None else tuple(self.wrap(v) for v in parts)


# ---------------------------------------------------------------------------
# finitely generated cones
# ---------------------------------------------------------------------------


class GeneratorSelfDualCone(SelfDualCone):
    """Cone of nonnegative combinations of the rows of a generator matrix,
    with the ambient dot product.

    Self-duality itself is a property to be *witnessed* (see
    ``self_duality_report``), not assumed by construction.
    """

    def __init__(self, generators: np.ndarray):
        gen = np.atleast_2d(np.asarray(generators, dtype=float))
        if gen.ndim != 2 or gen.shape[0] < 1:
            raise ValueError("generator matrix must have one generator per row")
        norms = np.linalg.norm(gen, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero generator")
        self.generators = gen
        self._extreme = self._extreme_mask()

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    def _extreme_mask(self) -> np.ndarray:
        """Generators not expressible as nonnegative combinations of the
        other, non-parallel generators."""
        import scipy.optimize

        gen = self.generators
        unit = gen / np.linalg.norm(gen, axis=1)[:, None]
        mask = np.ones(len(gen), dtype=bool)
        for j in range(len(gen)):
            cos = unit @ unit[j]
            others = [i for i in range(len(gen)) if i != j and cos[i] < 1.0 - 1e-9]
            if not others:
                continue
            coeffs, residual = scipy.optimize.nnls(gen[others].T, gen[j])
            if residual <= 1e-8 * np.linalg.norm(gen[j]):
                mask[j] = False
        return mask

    def as_vec(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def wrap(self, vec: np.ndarray) -> np.ndarray:
        return np.asarray(vec, dtype=float)

    def inner(self, x, y) -> float:
        return float(np.dot(self.as_vec(x), self.as_vec(y)))

    def nnls_fit(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        import scipy.optimize

        maxiter = max(10 * self.ambient_dim**2, 3 * len(self.generators))
        try:
            coeffs, residual = scipy.optimize.nnls(self.generators.T, target, maxiter=maxiter)
        except RuntimeError as exc:
            raise ConeProjectionError(f"nonnegative least squares stalled: {exc}") from exc
        return coeffs, float(residual)

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        vec = self.as_vec(x)
        scale = max(float(np.linalg.norm(vec)), 1.0)
        _, residual = self.nnls_fit(vec)
        return residual <= 1e2 * tol.cone_slack * scale

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the cone."""
        vec = self.as_vec(x)
        coeffs, _ = self.nnls_fit(vec)
        return self.generators.T @ coeffs

    def extreme_generators(self) -> np.ndarray:
        gen = self.generators[self._extreme]
        return gen / np.linalg.norm(gen, axis=1)[:, None]

    def random_atom(self, rng: np.random.Generator) -> np.ndarray:
        ext = self.extreme_generators()
        return ext[int(rng.integers(len(ext)))]

    def random_maximal_family(self, rng: np.random.Generator) -> list[np.ndarray]:
        ext = self.extreme_generators()
        order = rng.permutation(len(ext))
        family: list[np.ndarray] = []
        for idx in order:
            cand = ext[idx]
            if all(abs(np.dot(cand, f)) <= 1e-12 for f in family):
                family.append(cand)
        return family

    def complement_atoms(self, e, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
        ext = self.extreme_generators()
        vec = self.as_vec(e)
        out = []
        for cand in ext:
            if abs(np.dot(cand, vec)) <= 1e-12 and all(
                    abs(np.dot(cand, f)) <= 1e-12 for f in out):
                out.append(cand)
        return out

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.ambient_dim)

    def split_orthogonal(self, x, tol: Tolerance = DEFAULT_TOL):
        vec = self.as_vec(x)
        coeffs, residual = self.nnls_fit(vec)
        scale = max(float(np.linalg.norm(vec)), 1e-30)
        if residual > 1e-7 * scale:
            raise ConeProjectionError(
                "orthogonal-split oracle needs a cone element", residual=residual)
        if coeffs.max() <= 0.0:
            return None
        active = np.flatnonzero(coeffs > 1e-12 * coeffs.max())
        if len(active) <= 1:
            return None
        for head_idx in active:
            head = coeffs[head_idx] * self.generators[head_idx]
            rest = vec - head
            if abs(np.dot(head, rest)) <= 1e-9 * scale**2:
                return head, rest
        return None  # no orthogonal split among the active generators


def generator_cone_from_csv(path) -> GeneratorSelfDualCone:
    """Load a finitely generated cone: one generator per CSV row."""
    gen = np.loadtxt(path, delimiter=",", ndmin=2)
    return GeneratorSelfDualCone(gen)


# ---------------------------------------------------------------------------
# Moreau decomposition
# ---------------------------------------------------------------------------


def moreau_decompose(cone: SelfDualCone, a, tol: Tolerance = DEFAULT_TOL) -> MoreauPair:
    """Unique split a = a_plus - a_minus with both parts in the cone and
    <a_plus|a_minus> = 0."""
    if isinstance(cone, SpectralSelfDualCone):
        form = cone.model.spectral_form(a if isinstance(a, Element) else cone.wrap(a), tol)
        plus = np.zeros(cone.ambient_dim)
        minus = np.zeros(cone.ambient_dim)
        for pair in form.pairs:
            if pair.eigenvalue >= 0.0:
                plus += pair.eigenvalue * pair.atom.coords
            else:
                minus -= pair.eigenvalue * pair.atom.coords
        return MoreauPair(cone.wrap(plus), cone.wrap(minus))

    vec = cone.as_vec(a)
    plus = cone.project(vec)
    minus = plus - vec
    scale = max(float(np.linalg.norm(vec)), 1.0)
    cross = abs(cone.inner(plus, minus))
    dual_slack = float(np.min(cone.generators @ minus)) if isinstance(
        cone, GeneratorSelfDualCone) else 0.0
    if cross > 1e-8 * scale**2 or dual_slack < -1e-8 * scale:
        raise ConeProjectionError(
            f"projection failed Moreau conditions (cross={cross:.3e}, "
            f"dual slack={dual_slack:.3e})", residual=cross)
    return MoreauPair(cone.wrap(plus), cone.wrap(minus))


# ---------------------------------------------------------------------------
# atoms and peeling
# ---------------------------------------------------------------------------


def is_atom_sd(cone: SelfDualCone, e, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Indecomposable positive element with unit self-pairing."""
    if abs(cone.inner(e, e) - 1.0) > tol.check_tol:
        return False
    if isinstance(cone, SpectralSelfDualCone):
        eigs = cone.model.eigenvalues_coords(cone.as_vec(e), tol)
        if eigs.min() < -tol.cone_slack:
            return False
        return int(np.sum(np.abs(eigs) > 1e-7)) == 1
    if isinstance(cone, GeneratorSelfDualCone):
        vec = cone.as_vec(e)
        ext = cone.extreme_generators()
        cos = ext @ vec
        return bool(np.any(cos > 1.0 - 1e-9))
    raise UnsupportedModelError("unsupported cone form")


def peel_positive(cone: SelfDualCone, a, atom_oracle: Callable | None = None,
                  tol: Tolerance = DEFAULT_TOL) -> list[PeeledAtom]:
    """Represent a positive element as a sum of pairwise orthogonal atoms
    with positive coefficients, by orthogonal-split recursion."""
    oracle = atom_oracle or cone.split_orthogonal
    out: list[PeeledAtom] = []
    current = cone.as_vec(a).copy()
    scale = max(np.sqrt(abs(cone.inner(current, current))), 1e-30)
    budget = 4 * cone.ambient_dim + 8
    while np.sqrt(abs(cone.inner(current, current))) > 1e-10 * scale:
        if budget <= 0:
            raise ConeProjectionError("peeling did not terminate (oracle failure)")
        budget -= 1
        split = oracle(cone.wrap(current), tol)
        if split is None:
            s = float(np.sqrt(cone.inner(current, current)))
            out.append(PeeledAtom(s, cone.wrap(current / s)))
            break
        head, rest = split
        hv = cone.as_vec(head)
        s = float(np.sqrt(cone.inner(hv, hv)))
        if s <= 1e-12 * scale:
            current = cone.as_vec(rest)
            continue
        out.append(PeeledAtom(s, cone.wrap(hv / s)))
        current = cone.as_vec(rest)
    return out


def peel_spectral(cone: SelfDualCone, a, atom_oracle: Callable | None = None,
                  tol: Tolerance = DEFAULT_TOL) -> list[PeeledAtom]:
    """Atom representation of an arbitrary element: route through the Moreau
    split, then peel both positive parts."""
    pair = moreau_decompose(cone, a, tol)
    out = peel_positive(cone, pair.a_plus, atom_oracle, tol)
    out += [PeeledAtom(-p.coefficient, p.atom)
            for p in peel_positive(cone, pair.a_minus, atom_oracle, tol)]
    return out


# ---------------------------------------------------------------------------
# order-unit recovery and the two cone properties
# ---------------------------------------------------------------------------


def recover_order_unit(cone: SelfDualCone, seed: int, families: int | Sequence = 5,
                       tol: Tolerance = DEFAULT_TOL):
    """Sum of a maximal orthogonal atom family, cross-checked across families.

    All maximal families must resolve the same element (else the cone cannot
    resolve unity consistently) and every sampled atom must pair to 1 with it.
    """
    if isinstance(families, int):
        if families < 2:
            raise ValueError("need at least two families")
        fams = [cone.random_maximal_family(trial_rng(seed, k)) for k in range(families)]
    else:
        fams = [list(f) for f in families]
        if len(fams) < 2:
            raise ValueError("need at least two families")
    sums = [sum(cone.as_vec(e) for e in fam) for fam in fams]
    unit = sums[0]
    scale = max(np.sqrt(abs(cone.inner(unit, unit))), 1.0)
    disagreement = max(float(np.linalg.norm(s - unit)) for s in sums)
    if disagreement > 1e2 * tol.check_tol * scale:
        raise TransitionProbabilityViolation(
            f"maximal families disagree by {disagreement:.3e}; "
            "the cone does not resolve unity")
    rng = trial_rng(seed, len(fams))
    pairing_defect = max(abs(cone.inner(cone.random_atom(rng), unit) - 1.0)
                         for _ in range(16))
    if pairing_defect > 1e2 * tol.check_tol:
        raise TransitionProbabilityViolation(
            f"sampled atom pairs to the recovered unit with defect {pairing_defect:.3e}")
    return cone.wrap(unit)


def verify_unity_resolution(cone: SelfDualCone, seed: int, trials: int,
                            tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Every maximal orthogonal atom family resolves unity: the pairings of
    the family against any further atom sum to 1."""
    sum_defect = 0.0
    family_defect = 0.0
    reference = None
    for k in range(trials):
        rng = trial_rng(seed, k)
        family = cone.random_maximal_family(rng)
        total = sum(cone.as_vec(e) for e in family)
        if reference is None:
            reference = total
        family_defect = max(family_defect, float(np.linalg.norm(total - reference)))
        extra = cone.random_atom(rng)
        sum_defect = max(sum_defect, abs(
            sum(cone.inner(e, extra) for e in family) - 1.0))
    return [
        CheckResult("unity.family_pairings_sum_to_one", sum_defect, tol.check_tol),
        CheckResult("unity.families_share_one_sum", family_defect, tol.check_tol),
    ]


def verify_certainty_order(cone: SelfDualCone, seed: int, trials: int,
                           tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Unit pairing with an atom forces the atom below the effect.

    Positive cases are constructed as atom plus padding on its orthogonal
    complement family; the effect stays in [0, unit] by construction.
    """
    pairing_defect = 0.0
    order_defect = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        e = cone.random_atom(rng)
        a = cone.as_vec(e).copy()
        for f in cone.complement_atoms(e, tol):
            a = a + float(rng.uniform()) * cone.as_vec(f)
        pairing_defect = max(pairing_defect, abs(cone.inner(e, a) - 1.0))
        if not cone.contains(cone.wrap(a - cone.as_vec(e)), tol):
            order_defect = max(order_defect, 1.0)
    return [
        CheckResult("certainty_ip.pairing_attains_one", pairing_defect, tol.check_tol),
        CheckResult("certainty_ip.atom_below_effect", order_defect, 0.0),
    ]


def self_duality_report(cone: SelfDualCone, seed: int, trials: int,
                        tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Witness both inclusions of self-duality on samples."""
    forward = 0.0
    dual_in_cone = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        if isinstance(cone, GeneratorSelfDualCone):
            lam = np.abs(rng.normal(size=len(cone.generators)))
            a = cone.generators.T @ lam
            lam2 = np.abs(rng.normal(size=len(cone.generators)))
            b = cone.generators.T @ lam2
        else:
            pair_a = moreau_decompose(cone, cone.random_element(rng), tol)
            pair_b = moreau_decompose(cone, cone.random_element(rng), tol)
            a, b = pair_a.a_plus, pair_b.a_plus
        forward = max(forward, -cone.inner(a, b))
        # a Moreau minus-part is always a dual vector; it must lie in the cone
        x = cone.random_element(rng)
        minus = moreau_decompose(cone, x, tol).a_minus
        if not cone.contains(minus, tol):
            dual_in_cone = max(dual_in_cone, 1.0)
    return [
        CheckResult("selfdual.cone_pairings_nonnegative", forward, tol.check_tol),
        CheckResult("selfdual.dual_vectors_in_cone", dual_in_cone, 0.0),
    ]


def verify_induced_axioms(cone: SelfDualCone, seed: int, trials: int,
                          tol: Tolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Chain check: a cone passing unity resolution and certainty order also
    shows atom-state uniqueness, certainty and a symmetric transition
    probability through its pairing."""
    unit = cone.as_vec(recover_order_unit(cone, seed, 3, tol))
    atom_one = 0.0
    mixed_max = 0.0
    symmetry = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        e = cone.random_atom(rng)
        atom_one = max(atom_one, abs(cone.inner(e, unit) - 1.0))
        f = cone.random_atom(rng)
        symmetry = max(symmetry, abs(cone.inner(e, f) - cone.inner(f, e)))
        # bounded mixture of two non-parallel atoms, normalized against unit
        g = None
        for _ in range(200):
            cand = cone.random_atom(rng)
            if cone.inner(cand, e) <= 0.95:
                g = cand
                break
        if g is None:
            continue
        lam = float(rng.uniform(0.2, 0.8))
        sigma = lam * cone.as_vec(e) + (1.0 - lam) * cone.as_vec(g)
        mixed_max = max(mixed_max, cone.inner(sigma, e))
    checks = verify_unity_resolution(cone, seed, trials, tol)
    checks += verify_certainty_order(cone, seed, trials, tol)
    checks += [
        CheckResult("chain.atom_pairs_one_with_unit", atom_one, tol.check_tol),
        CheckResult("chain.mixed_states_below_one", mixed_max, 1.0 - 1e-6),
        CheckResult("chain.symmetric_pairing", symmetry, tol.check_tol),
    ]
    return checks

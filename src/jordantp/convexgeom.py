"""Polytope state spaces: minimal unit effects via linear programming and the
affinity property of extreme points.

For each extreme point omega of a polytope, e_omega(zeta) is the infimum of
a(zeta) over affine functions a with 0 <= a <= 1 on the polytope and
a(omega) = 1.  Bounding affine functions by their vertex values is exact on a
polytope, so the infimum reduces to a small dense LP with d + 1 unknowns.

The polytope passes the affinity property iff every e_omega is affine on the
hull and attains 1 only at omega.  Smooth bodies (the l^p balls) are handled
analytically through the generalized qubit backend instead: polygonal
approximation would change the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends.classical import ClassicalModel
from .backends.lpqubit import LpQubitModel
from .elements import DEFAULT_TOL, Tolerance
from .errors import InfeasiblePointError, LinearProgramError, UnnormalizedParamError


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: loading scipy.optimize
    costs several times the rest of the package's import."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class AffineFunction:
    """zeta -> constant + linear . zeta on the ambient space."""

    constant: float
    linear: np.ndarray

    def __call__(self, zeta) -> float:
        return float(self.constant + np.dot(self.linear, np.asarray(zeta, dtype=float)))


@dataclass(frozen=True)
class EOmegaReport:
    omega_index: int
    values_at_vertices: tuple[float, ...]
    affinity_defect: float
    max_off_value: float
    passes: bool

    def to_json(self) -> dict:
        return {
            "omega_index": self.omega_index,
            "values_at_vertices": list(self.values_at_vertices),
            "affinity_defect": self.affinity_defect,
            "max_off_value": self.max_off_value,
            "passes": self.passes,
        }


class PolytopeStateSpace:
    """Compact convex set given by its vertex list (one point per row)."""

    def __init__(self, vertices, check_extreme: bool = True):
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.ndim != 2 or verts.shape[0] < 2:
            raise ValueError("a polytope needs at least two vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must be finite")
        scale = max(float(np.max(np.abs(verts))), 1.0)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if np.linalg.norm(verts[i] - verts[j]) <= 1e-12 * scale:
                    raise ValueError(f"vertices {i} and {j} coincide")
        self.vertices = verts
        self.dim = verts.shape[1]
        if check_extreme:
            for i in range(len(verts)):
                if self._in_hull(verts[i], exclude=i):
                    raise ValueError(f"vertex {i} is not extreme (inside the hull of the others)")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def _in_hull(self, zeta: np.ndarray, exclude: int | None = None) -> bool:
        verts = self.vertices
        if exclude is not None:
            verts = np.delete(verts, exclude, axis=0)
        k = len(verts)
        a_eq = np.vstack([verts.T, np.ones(k)])
        b_eq = np.concatenate([np.asarray(zeta, dtype=float), [1.0]])
        res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k,
                      method="highs")
        return bool(res.status == 0)

    def contains(self, zeta) -> bool:
        return self._in_hull(np.asarray(zeta, dtype=float))


def polytope_from_csv(path) -> PolytopeStateSpace:
    """Load a polytope: one vertex per CSV row."""
    return PolytopeStateSpace(np.loadtxt(path, delimiter=",", ndmin=2))


# ---------------------------------------------------------------------------
# the LP for e_omega
# ---------------------------------------------------------------------------


def _e_omega_lp(poly: PolytopeStateSpace, omega_index: int, zeta: np.ndarray,
                unit_capped: bool = True) -> float:
    """minimize c + f . zeta  s.t.  c + f . v >= 0 on vertices, c + f . omega = 1,
    optionally also c + f . v <= 1 (competitors restricted to unit effects)."""
    verts = poly.vertices
    d = poly.dim
    ones = np.ones((len(verts), 1))
    rows = [np.hstack([-ones, -verts])]
    rhs = [np.zeros(len(verts))]
    if unit_capped:
        rows.append(np.hstack([ones, verts]))
        rhs.append(np.ones(len(verts)))
    a_eq = np.concatenate([[1.0], verts[omega_index]])[None, :]
    objective = np.concatenate([[1.0], zeta])
    # without the cap the feasible region is an unbounded polyhedron and the
    # default solver occasionally gives up; fall back before failing
    attempts = [("highs", (None, None))]
    if not unit_capped:
        attempts += [("highs-ds", (None, None)), ("highs", (-1e9, 1e9))]
    for method, box in attempts:
        res = linprog(objective, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                      A_eq=a_eq, b_eq=[1.0], bounds=[box] * (d + 1), method=method)
        if res.status == 0:
            return float(res.fun)
    raise LinearProgramError(
        f"LP for extreme point {omega_index} failed with status {res.status}: {res.message}")


def e_omega_value(poly: PolytopeStateSpace, omega_index: int, zeta,
                  tol: Tolerance = DEFAULT_TOL, unit_capped: bool = True) -> float:
    """Value at zeta of the minimal unit effect pinned to 1 at the vertex.

    With ``unit_capped`` the infimum runs over affine functions with values in
    [0, 1] on the polytope; without it, over all nonnegative affine functions
    pinned to 1 at the vertex.  The two coincide on shapes where the effects
    are affine (and on the square), and the pass/fail verdict of
    ``check_extreme_affinity`` agrees under both; on failing shapes the
    uncapped infimum can be strictly smaller at interior points.
    """
    if not 0 <= omega_index < poly.n_vertices:
        raise ValueError(f"omega_index {omega_index} out of range")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (poly.dim,):
        raise ValueError(f"query point must live in R^{poly.dim}")
    if not poly.contains(zeta):
        raise InfeasiblePointError("query point lies outside the convex hull")
    return _e_omega_lp(poly, omega_index, zeta, unit_capped)


def check_extreme_affinity(poly: PolytopeStateSpace, tol: Tolerance = DEFAULT_TOL,
                           midpoint_samples: int = 64, seed: int = 0,
                           unit_capped: bool = True) -> list[EOmegaReport]:
    """Decide, per extreme point, whether its minimal unit effect is affine
    and attains 1 only there.

    Affinity is probed on all pairwise vertex midpoints plus random convex
    combinations; the LP value function is piecewise linear, so midpoint
    violations detect non-affinity.
    """
    verts = poly.vertices
    n = poly.n_vertices
    rng = np.random.default_rng(seed)
    combos: list[np.ndarray] = []
    for i in range(n):
        for j in range(i + 1, n):
            lam = np.zeros(n)
            lam[i] = lam[j] = 0.5
            combos.append(lam)
    for _ in range(midpoint_samples):
        combos.append(rng.dirichlet(np.ones(n)))

    reports = []
    for w in range(n):
        vertex_values = np.array([_e_omega_lp(poly, w, v, unit_capped) for v in verts])
        defect = 0.0
        for lam in combos:
            zeta = verts.T @ lam
            value = _e_omega_lp(poly, w, zeta, unit_capped)
            defect = max(defect, abs(value - float(np.dot(lam, vertex_values))))
        off = np.delete(vertex_values, w)
        max_off = float(off.max()) if len(off) else 0.0
        passes = bool(defect <= tol.check_tol and max_off <= 1.0 - 1e-6)
        reports.append(EOmegaReport(
            omega_index=w,
            values_at_vertices=tuple(float(v) for v in vertex_values),
            affinity_defect=float(defect),
            max_off_value=max_off,
            passes=passes,
        ))
    return reports


def vertex_tp_matrix(poly: PolytopeStateSpace) -> np.ndarray:
    """T[i][j] = value at vertex i of the minimal unit effect of vertex j."""
    n = poly.n_vertices
    mat = np.empty((n, n))
    for j in range(n):
        for i in range(n):
            mat[i, j] = _e_omega_lp(poly, j, poly.vertices[i])
    return mat


# ---------------------------------------------------------------------------
# smooth bodies, handled analytically through the l^p qubit backend
# ---------------------------------------------------------------------------


def smooth_ball_e_omega(lp_model: LpQubitModel, omega, zeta) -> float:
    """Minimal unit effect on a smooth strictly convex ball.

    The effect allocates exactly 1 to omega and exactly 0 to its antipode;
    the formula is arranged so both endpoint values are exact in floating
    point.
    """
    omega = np.asarray(omega, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    p = lp_model.p
    if abs(lp_model._pnorm(omega, p) - 1.0) > 1e-9:
        raise UnnormalizedParamError("omega must lie on the boundary sphere")
    if lp_model._pnorm(zeta, p) > 1.0 + 1e-9:
        raise ValueError("zeta must lie in the closed unit ball")
    f = np.sign(omega) * np.abs(omega) ** (p - 1.0)
    return float(np.dot(f, omega + zeta) / (2.0 * np.dot(f, omega)))


# ---------------------------------------------------------------------------
# induced model on a passing polytope
# ---------------------------------------------------------------------------


class PolytopeAffineModel(ClassicalModel):
    """Affine functions on a passing polytope in the vertex-value picture.

    On a simplex the vertex-value map is an order isomorphism onto the
    componentwise-ordered coordinate space, with the barycentric coordinate
    functions as atoms.
    """

    kind = "polytope_affine"

    def __init__(self, poly: PolytopeStateSpace):
        super().__init__(poly.n_vertices)
        self.polytope = poly

    def affine_to_element(self, func: AffineFunction):
        return self.element([func(v) for v in self.polytope.vertices])


def induced_affine_model(poly: PolytopeStateSpace, tol: Tolerance = DEFAULT_TOL,
                         midpoint_samples: int = 32) -> PolytopeAffineModel:
    """Vertex-value model of a polytope that passes the affinity property."""
    reports = check_extreme_affinity(poly, tol, midpoint_samples)
    if not all(r.passes for r in reports):
        failing = [r.omega_index for r in reports if not r.passes]
        raise ValueError(f"polytope fails the affinity property at extreme points {failing}")
    diffs = poly.vertices[1:] - poly.vertices[0]
    if np.linalg.matrix_rank(diffs, tol=1e-9) != poly.n_vertices - 1:
        raise ValueError("vertex-value representation needs affinely independent vertices")
    return PolytopeAffineModel(poly)

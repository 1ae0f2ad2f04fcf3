"""Polytope state spaces: minimal unit effects via linear programming and the
affinity property of extreme points.

For each extreme point omega of a polytope, e_omega(zeta) is the infimum of
a(zeta) over affine functions a with 0 <= a <= 1 on the polytope and
a(omega) = 1.  Bounding affine functions by their vertex values is exact on a
polytope, so the infimum reduces to a small LP with d + 1 unknowns; all the
query points of one omega are solved together as one block-diagonal LP.

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

    def __init__(self, vertices):
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


def _e_omega_lp(poly: PolytopeStateSpace, omega_index: int, zetas: np.ndarray) -> np.ndarray:
    """Values of e_omega at each row of ``zetas`` (shape (K, d)), from one LP.

    Per point: minimize c + f . zeta  s.t.  0 <= c + f . v <= 1 on vertices
    and c + f . omega = 1.  The feasible region does not depend on zeta, so
    the K problems are stacked block-diagonally with one variable block
    (c_k, f_k) per point; the blocks share no variable, so the stacked
    optimum is optimal in every block.
    """
    from scipy import sparse

    verts = poly.vertices
    d = poly.dim
    k = len(zetas)
    ones = np.ones((len(verts), 1))
    rows = np.vstack([np.hstack([-ones, -verts]), np.hstack([ones, verts])])
    rhs = np.concatenate([np.zeros(len(verts)), np.ones(len(verts))])
    blocks = sparse.identity(k, format="csr")
    a_ub = sparse.kron(blocks, rows, format="csr")
    b_ub = np.tile(rhs, k)
    a_eq = sparse.kron(blocks, np.concatenate([[1.0], verts[omega_index]])[None, :],
                       format="csr")
    objectives = np.hstack([np.ones((k, 1)), zetas])
    res = linprog(objectives.ravel(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(k),
                  bounds=(None, None), method="highs")
    if res.status != 0:
        raise LinearProgramError(
            f"LP for extreme point {omega_index} failed with status {res.status}: {res.message}")
    return np.einsum("ij,ij->i", objectives, res.x.reshape(k, d + 1))


def e_omega_value(poly: PolytopeStateSpace, omega_index: int, zeta) -> float:
    """Value at zeta of the minimal unit effect pinned to 1 at the vertex: the
    infimum over affine functions with values in [0, 1] on the polytope."""
    if not 0 <= omega_index < poly.n_vertices:
        raise ValueError(f"omega_index {omega_index} out of range")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (poly.dim,):
        raise ValueError(f"query point must live in R^{poly.dim}")
    if not poly.contains(zeta):
        raise InfeasiblePointError("query point lies outside the convex hull")
    return float(_e_omega_lp(poly, omega_index, zeta[None, :])[0])


def check_extreme_affinity(poly: PolytopeStateSpace, tol: Tolerance = DEFAULT_TOL,
                           midpoint_samples: int = 64, seed: int = 0) -> list[EOmegaReport]:
    """Decide, per extreme point, whether its minimal unit effect is affine
    and attains 1 only there.

    Affinity is probed on all pairwise vertex midpoints plus random convex
    combinations; the LP value function is piecewise linear, so midpoint
    violations detect non-affinity.
    """
    if midpoint_samples < 0:
        raise ValueError("midpoint_samples must be nonnegative")
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
    # one LP per extreme point: the vertices first, then every probe
    points = np.vstack([verts] + [verts.T @ lam for lam in combos])

    reports = []
    for w in range(n):
        values = _e_omega_lp(poly, w, points)
        vertex_values = values[:n]
        defect = 0.0
        for lam, value in zip(combos, values[n:]):
            defect = max(defect, abs(float(value) - float(np.dot(lam, vertex_values))))
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
        mat[:, j] = _e_omega_lp(poly, j, poly.vertices)
    return mat


# ---------------------------------------------------------------------------
# smooth bodies, handled analytically through the l^p qubit backend
# ---------------------------------------------------------------------------


def smooth_ball_e_omega(lp_model: LpQubitModel, omega, zeta) -> float:
    """Minimal unit effect on a smooth strictly convex ball.

    It is the backend's transition probability from zeta to omega, which
    allocates exactly 1 to omega and exactly 0 to its antipode in floating
    point.
    """
    omega = np.asarray(omega, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    p = lp_model.p
    if abs(lp_model.pnorm(omega, p) - 1.0) > 1e-9:
        raise UnnormalizedParamError("omega must lie on the boundary sphere")
    if lp_model.pnorm(zeta, p) > 1.0 + 1e-9:
        raise ValueError("zeta must lie in the closed unit ball")
    return lp_model.transition_from_params(zeta, omega)


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

"""Polytope state spaces: minimal unit effects via linear programming and the
affinity property of extreme points.

For each extreme point omega of a polytope, e_omega(zeta) is the infimum of
a(zeta) over affine functions a with 0 <= a <= 1 on the polytope and
a(omega) = 1.  Bounding affine functions by their vertex values is exact on a
polytope, and a(omega) = 1 fixes the constant, so the infimum reduces to a
small LP over the d linear coefficients, one row 0 <= a(v) <= 1 per other
vertex v.  These LPs share no variable, so those of whole extreme points are
stacked block-diagonally into one LP of at most ``LP_STACK_ROWS`` rows.

The polytope passes the affinity property iff every e_omega is affine on the
hull and attains 1 only at omega.  The property is affine invariant, so every
LP runs on a normalised copy of the vertices: centred, whitened on the axes of
their affine hull and scaled to largest absolute entry 1.  Smooth bodies (the
l^p balls) are not polytopes: their e_omega is the closed-form transition
probability of the lpq backend, which inscribed polygons only approach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends.classical import ClassicalModel
from .elements import DEFAULT_TOL, Tolerance
from .errors import InfeasiblePointError, LinearProgramError
from .reports import read_csv_rows

# A point whose L1 distance from a convex hull is at most this, in normalised
# units (the largest absolute whitened vertex entry is 1), counts as inside
# it.  HiGHS accepts bound violations up to its primal feasibility tolerance
# of 1e-7, so a distance below a few times that can read as 0; the cutoff
# sits above that band.
HULL_CUTOFF = 1e-6

# The e_omega LPs of several extreme points are solved as one stacked LP of
# at most this many two-sided rows, n - 1 per query point.  A call has a
# fixed cost of about 0.85 ms (2.1 ms through ``scipy.optimize.linprog``),
# while HiGHS holds over 1 KB per row: one 11,704-row LP raised the peak RSS
# by 15 MB, against 1.8 MB as eight LPs at this budget (Intel Xeon, scipy
# 1.17).  With 16 random probes, every polytope with up to 8 vertices is one
# LP at this budget, the cube's 1,400 rows included.
LP_STACK_ROWS = 1536


def linprog(*args, **kwargs):
    """``scipy.optimize.milp``, imported on first use: loading scipy.optimize
    costs several times the rest of the package's import.  With no integer
    variable it is an LP with two-sided rows, minus ``linprog``'s overhead."""
    from scipy.optimize import milp

    return milp(*args, **kwargs)


def _stacked_lp(cost: np.ndarray, blocks: np.ndarray, lower, upper, bounds, what: str):
    """The solution (K, w) of one LP: minimise ``cost`` (K, w) subject to
    lower <= A x <= upper and ``bounds``, A the CSC matrix with the K dense
    blocks of ``blocks`` (shape (K, h, w)) on its diagonal.  The one place
    that builds an LP; a failed solve raises ``LinearProgramError`` naming
    ``what``."""
    from scipy import sparse

    k, h, w = blocks.shape
    b, r, c = np.nonzero(blocks)
    matrix = sparse.csc_array((blocks[b, r, c], (b * h + r, b * w + c)), shape=(k * h, k * w))
    res = linprog(cost.ravel(), constraints=(matrix, lower, upper), bounds=bounds)
    if res.status != 0:
        raise LinearProgramError(f"{what} failed with status {res.status}: {res.message}")
    return res.x.reshape(k, w)


def _hull_distances(points: np.ndarray, hulls: np.ndarray) -> np.ndarray:
    """L1 distance from each ``points[b]`` (shape (B, d)) to the convex hull
    of the rows of ``hulls[b]`` (shape (B, m, d)), all from one LP.

    Block b has weights lam >= 0 with sum 1 and slacks u+, u- >= 0 tied by
    hulls[b].T lam + u+ - u- = points[b], and minimises sum(u+ + u-).  Every
    block is feasible and bounded below by 0, so the stacked optimum is
    optimal in every block.
    """
    k, m, d = hulls.shape
    blocks = np.zeros((k, d + 1, m + 2 * d))
    blocks[:, :d, :m] = hulls.transpose(0, 2, 1)
    blocks[:, :d, m:m + d] = np.eye(d)
    blocks[:, :d, m + d:] = -np.eye(d)
    blocks[:, d, :m] = 1.0
    cost = np.concatenate([np.zeros(m), np.ones(2 * d)])
    rhs = np.hstack([points, np.ones((k, 1))]).ravel()
    x = _stacked_lp(np.tile(cost, k), blocks, rhs, rhs, (0, np.inf), "hull LP")
    return x[:, m:].sum(axis=1)


def _others(n: int) -> np.ndarray:
    """Row i: the indices 0..n-1 except i, in order (shape (n, n - 1))."""
    return np.broadcast_to(np.arange(n), (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)


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
    """Compact convex set given by its vertex list (one point per row).

    ``vertices`` is the input as given; ``normalised`` is its image under
    ``normalise``, the affine map on which every LP runs, with one column
    per axis of the affine hull (which may be fewer than ``dim``).
    """

    def __init__(self, vertices):
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.ndim != 2 or verts.shape[0] < 2:
            raise ValueError("a polytope needs at least two vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must be finite")
        self.vertices = verts
        self.dim = verts.shape[1]
        self._center = verts.mean(axis=0)
        centred = verts - self._center
        whitened, spread, axes = np.linalg.svd(centred, full_matrices=False)
        # an axis spans the affine hull only where its spread is well above
        # what rounding every entry at the input's magnitude can make
        rounding = 64 * np.finfo(float).eps * np.sqrt(verts.size) * np.max(np.abs(verts))
        keep = spread > rounding
        if not keep[0]:
            raise ValueError("vertices 0 and 1 coincide")
        scale = np.max(np.abs(whitened[:, keep]))
        self._map = axes[keep].T / (spread[keep] * scale)
        # the component off the affine hull, in normalised units of the widest
        # axis; the LPs never see it, being rounding noise at the vertices
        self._off_hull = (np.eye(self.dim) - axes[keep].T @ axes[keep]) / (spread[0] * scale)
        self.normalised = centred @ self._map
        gaps = np.abs(self.normalised[:, None, :] - self.normalised[None, :, :]).sum(axis=2)
        close = np.argwhere(np.triu(gaps <= HULL_CUTOFF, 1))
        if len(close):
            raise ValueError(f"vertices {close[0][0]} and {close[0][1]} coincide")
        distances = _hull_distances(self.normalised, self.normalised[_others(len(verts))])
        inside = np.flatnonzero(distances <= HULL_CUTOFF)
        if len(inside):
            raise ValueError(f"vertex {inside[0]} is not extreme (inside the hull of the others)")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def normalise(self, points) -> np.ndarray:
        """Points in the normalised coordinates of the LPs."""
        return (np.asarray(points, dtype=float) - self._center) @ self._map

    def contains(self, zeta) -> bool:
        """Whether zeta lies within L1 distance ``HULL_CUTOFF`` of the hull, in
        normalised units: its distance within the affine hull plus its
        off-hull residual."""
        offset = np.asarray(zeta, dtype=float) - self._center
        distance = _hull_distances((offset @ self._map)[None, :], self.normalised[None])[0]
        return bool(distance + np.abs(offset @ self._off_hull).sum() <= HULL_CUTOFF)


def polytope_from_csv(path) -> PolytopeStateSpace:
    """Load a polytope: one vertex per CSV row."""
    return PolytopeStateSpace(read_csv_rows(path))


# ---------------------------------------------------------------------------
# the LP for e_omega
# ---------------------------------------------------------------------------


def _e_omega_normalised_lp(poly: PolytopeStateSpace, omega_index,
                           zetas: np.ndarray) -> np.ndarray:
    """Values of e_omega at each row of ``zetas`` (shape (K, d), normalised
    coordinates), from one LP; ``omega_index`` gives the extreme point of
    each row, one index for all of them or K.

    a(omega) = 1 fixes a = 1 + f . (x - omega), so per point: minimize
    f . (zeta - omega)  s.t.  -1 <= f . (v - omega) <= 0 on the other
    vertices, and e_omega(zeta) = 1 + the minimum (exactly 1 at omega).  The
    K problems are stacked block-diagonally with one variable block f_k per
    point; the blocks share no variable, so the stacked optimum is optimal
    in every block.
    """
    verts = poly.normalised
    n = poly.n_vertices
    omegas = np.broadcast_to(np.asarray(omega_index), (len(zetas),))
    edges = verts[_others(n)[omegas]] - verts[omegas][:, None, :]
    objectives = zetas - verts[omegas]
    extremes = sorted(set(omegas.tolist()))
    which = f"point {extremes[0]}" if len(extremes) == 1 else f"points {extremes}"
    x = _stacked_lp(objectives, edges, -1.0, 0.0, (-np.inf, np.inf), f"LP for extreme {which}")
    return 1.0 + np.einsum("ij,ij->i", objectives, x)


def _e_omega_stacks(poly: PolytopeStateSpace, zetas: np.ndarray, omegas=None) -> np.ndarray:
    """Values of e_omega for each of ``omegas`` (default: every extreme
    point) at each row of ``zetas`` (shape (K, d), normalised coordinates):
    row j of the (len(omegas), K) result is omegas[j]'s.

    Whole extreme points are grouped into LPs of at most ``LP_STACK_ROWS``
    constraint rows, an extreme point alone being one LP however many rows
    it needs.
    """
    n = poly.n_vertices
    omegas = np.arange(n) if omegas is None else np.asarray(omegas)
    k = len(zetas)
    per_lp = max(1, LP_STACK_ROWS // ((n - 1) * k))
    values = np.empty((len(omegas), k))
    for start in range(0, len(omegas), per_lp):
        group = omegas[start:start + per_lp]
        values[start:start + len(group)] = _e_omega_normalised_lp(
            poly, np.repeat(group, k), np.tile(zetas, (len(group), 1))).reshape(len(group), k)
    return values


def _e_omega_lp(poly: PolytopeStateSpace, omega_index: int, zetas: np.ndarray) -> np.ndarray:
    """Values of e_omega at each row of ``zetas`` (shape (K, d), the
    polytope's own coordinates), from one LP."""
    return _e_omega_normalised_lp(poly, omega_index, poly.normalise(zetas))


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
                           midpoint_samples: int = 0, seed: int = 0) -> list[EOmegaReport]:
    """Decide, per extreme point, whether its minimal unit effect is affine
    and attains 1 only there.

    The affinity defect is the largest gap |e(c) - sum_i w_i e(v_i)| over
    probe points c = sum_i w_i v_i.  The first probe, the vertex centroid
    (w_i = 1/n), is an exact certificate: e = e_omega is concave, being an
    infimum of affine functions, and it is affine on the hull exactly when
    e(centroid) equals the mean of its vertex values.  Proof: let a be the
    LP optimum at the centroid.  a is feasible, so a(v_i) >= e(v_i) at every
    vertex, while mean a(v_i) = a(centroid) = e(centroid) = mean e(v_i);
    hence a(v_i) = e(v_i) for every i.  Then at any hull point
    z = sum_i l_i v_i, e(z) <= a(z) = sum_i l_i e(v_i) <= e(z) by
    concavity, so e = a.  Near the tolerance this is approximate: a centroid
    gap g bounds each vertex gap a(v_i) - e(v_i), so every probe's gap, only
    by n g.  Where check_tol / n < g <= check_tol and no probe has failed the
    extreme point yet, its pairwise midpoints are solved too, stacked under
    the same row budget, and enter the defect.  ``midpoint_samples``
    random convex combinations are an opt-in cross-check.
    """
    if midpoint_samples < 0:
        raise ValueError("midpoint_samples must be nonnegative")
    verts = poly.normalised
    n = poly.n_vertices
    rng = np.random.default_rng(seed)
    # one row of convex weights per probe: the centroid, then the random ones
    combos = np.vstack([np.full((1, n), 1.0 / n),
                        rng.dirichlet(np.ones(n), size=midpoint_samples)])
    # the vertices first, then every probe
    all_values = _e_omega_stacks(poly, np.vstack([verts, combos @ verts]))
    vertex_values = all_values[:, :n]
    gaps = np.abs(all_values[:, n:] - vertex_values @ combos.T)
    defects = gaps.max(axis=1)
    # an omega that no probe has failed yet, with a centroid gap in the band
    band = np.flatnonzero((gaps[:, 0] > tol.check_tol / n) & (defects <= tol.check_tol))
    if len(band):
        first, second = np.triu_indices(n, 1)
        halves = 0.5 * (np.eye(n)[first] + np.eye(n)[second])
        at_halves = _e_omega_stacks(poly, halves @ verts, band)
        defects[band] = np.maximum(defects[band], np.abs(
            at_halves - vertex_values[band] @ halves.T).max(axis=1))

    reports = []
    for w, (values, defect) in enumerate(zip(vertex_values, defects)):
        off = np.delete(values, w)
        max_off = float(off.max()) if len(off) else 0.0
        passes = bool(defect <= tol.check_tol and max_off <= 1.0 - 1e-6)
        reports.append(EOmegaReport(
            omega_index=w,
            values_at_vertices=tuple(float(v) for v in values),
            affinity_defect=float(defect),
            max_off_value=max_off,
            passes=passes,
        ))
    return reports


def vertex_tp_matrix(poly: PolytopeStateSpace) -> np.ndarray:
    """T[i][j] = value at vertex i of the minimal unit effect of vertex j."""
    return _e_omega_stacks(poly, poly.normalised).T


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
                         midpoint_samples: int = 0) -> PolytopeAffineModel:
    """Vertex-value model of a polytope that passes the affinity property."""
    reports = check_extreme_affinity(poly, tol, midpoint_samples)
    if not all(r.passes for r in reports):
        failing = [r.omega_index for r in reports if not r.passes]
        raise ValueError(f"polytope fails the affinity property at extreme points {failing}")
    diffs = poly.normalised[1:] - poly.normalised[0]
    if np.linalg.matrix_rank(diffs, tol=1e-9) != poly.n_vertices - 1:
        raise ValueError("vertex-value representation needs affinely independent vertices")
    return PolytopeAffineModel(poly)

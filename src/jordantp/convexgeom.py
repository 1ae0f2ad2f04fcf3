"""Polytope state spaces: minimal unit effects via linear programming and the
affinity property of extreme points.

For each extreme point omega of a polytope, e_omega(zeta) is the infimum of
a(zeta) over affine functions a with 0 <= a <= 1 on the polytope and
a(omega) = 1.  Bounding affine functions by their vertex values is exact on a
polytope, and a(omega) = 1 fixes the constant, so the infimum reduces to a
small LP over the d linear coefficients, one row 0 <= a(v) <= 1 per other
vertex v; its dual has only d rows.  The LPs share no variable, so those of
whole extreme points are solved as one stack of blocks by ``linprog``, a
revised simplex in numpy that certifies every block.

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
from .errors import InfeasiblePointError, InputError, LinearProgramError
from .reports import read_csv_rows

# A point whose L1 distance from a convex hull is at most this, in normalised
# units (the largest absolute whitened vertex entry is 1), counts as inside
# it.  The value is kept from when HiGHS solved the LPs, so that the same
# polytopes load, and sits above the simplex's CERT_TOL.  A polygon inscribed
# in a flat-sided curve can have vertices closer than this to the hull of the
# others, and then does not load (the l^10 32- and 64-gons, CHANGES.md).
HULL_CUTOFF = 1e-6

# The e_omega LPs of several extreme points are solved in one call of at most
# this many (query point, other vertex) pairs, n - 1 per query point, each
# pair two columns of a d-row block.  A call costs a few numpy operations
# per pivot whatever its size, so stacking saves calls, and the budget bounds
# its memory: unbounded, a regular 512-gon with 16 probes would stack
# 512 x 528 blocks of 2 x 1,022 doubles in one call, about 4.4 GB.
LP_STACK_ROWS = 1536

# The simplex's tolerances, relative to the largest absolute entry of a
# block's matrix and right-hand side (at least 1): on the normalised
# coordinates every entry is of order 1.  A reduced cost or a basic level
# below ROUNDING is rounding, and no step takes a row with a larger pivot
# further below 0 than that.  A pivot entry must exceed PIVOT_TOL: on a
# 5-cube whose axes were stretched by 8e-3 to 7e2 and moved by 2.5e5, pivots
# down to 1e-9 made bases of condition 1e9 to 1e12 among which the simplex
# cycled.  The certificate allows residuals of CERT_TOL, as HiGHS allowed
# bound violations of 1e-7.
ROUNDING = 1e-11
PIVOT_TOL = 1e-7
CERT_TOL = 1e-7

_FAILURES = {1: "starts infeasible", 2: "is unbounded", 3: "did not terminate",
             4: "failed its optimality certificate"}


def linprog(cost: np.ndarray, matrix: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
            what: str) -> np.ndarray:
    """The solutions (K, N) of K standard-form LPs: minimise cost[k] . x
    subject to matrix[k] x = rhs[k] and x >= 0, with ``matrix`` of shape
    (K, r, N), from the feasible bases ``basis`` (K, r) of column indices.
    The one place that solves an LP.

    Each block's final basis is checked by its KKT certificate, solved
    afresh: primal feasibility, dual feasibility and equal primal and dual
    objectives.  A block that starts infeasible, is unbounded, runs out of
    steps or fails its certificate raises ``LinearProgramError`` naming
    ``what``, as does a basis that rounding made singular.
    """
    k, _, n = matrix.shape
    scale = np.maximum(1.0, np.maximum(np.abs(matrix).max(axis=(1, 2)), np.abs(rhs).max(axis=1)))
    try:
        basis, status = _simplex(cost, matrix, rhs, basis.copy(), scale)
        bases = np.take_along_axis(matrix, basis[:, None, :], axis=2)
        x_basic = np.linalg.solve(bases, rhs[..., None])[..., 0]
        duals = np.linalg.solve(bases.transpose(0, 2, 1),
                                np.take_along_axis(cost, basis, axis=1)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise LinearProgramError(f"{what} failed: {exc}") from exc
    x = np.zeros((k, n))
    x[np.arange(k)[:, None], basis] = np.maximum(x_basic, 0.0)
    primal, dual = np.einsum("kn,kn->k", cost, x), np.einsum("ki,ki->k", duals, rhs)
    residual = np.abs(np.einsum("kin,kn->ki", matrix, x) - rhs).max(axis=1)
    reduced = cost - np.einsum("ki,kin->kn", duals, matrix)
    certified = ((x_basic.min(axis=1) >= -CERT_TOL * scale) & (residual <= CERT_TOL * scale)
                 & (reduced.min(axis=1) >= -CERT_TOL * scale)
                 & (np.abs(primal - dual) <= CERT_TOL * scale * (1.0 + np.abs(primal))))
    status[(status == 0) & ~certified] = 4
    failed = np.flatnonzero(status)
    if len(failed):
        block = failed[0]
        raise LinearProgramError(f"{what} failed: block {block} of {k} {_FAILURES[status[block]]}")
    return x


def _simplex(cost, matrix, rhs, basis, scale):
    """The final bases (K, r) of ``linprog``'s blocks, updated in place, and
    each block's status: 0 at an optimum, else a key of ``_FAILURES``.

    A revised simplex runs on the blocks not yet at an optimum, all at once.
    Every step re-solves their (r, r) bases, so rounding does not
    accumulate, and picks the entering and the leaving column by Bland's
    rule, the lowest index among the candidates, which cannot cycle in exact
    arithmetic (Bland, Math. Oper. Res. 2, 1977).  Rows leave by Harris's
    ratio test (Math. Programming 5, 1973): a pivot above PIVOT_TOL and 0
    within the longest step that leaves every row above -ROUNDING.  A column
    with no such row is barred until the basis changes; with every improving
    column barred, the first that gains more than CERT_TOL enters, and a
    smaller pivot may leave if no larger one ties.
    """
    n = matrix.shape[2]
    status = np.full(len(basis), -1)  # -1 while a block runs
    # block k's columns up to barred[k] are barred: Bland's rule tries them in order
    live, barred = np.arange(len(basis)), np.full(len(basis), -1)
    for step in range(10 * n):
        a, c, b, tol = matrix[live], cost[live], basis[live], scale[live, None]
        inverse = np.linalg.inv(np.take_along_axis(a, b[:, None, :], axis=2))
        x = np.einsum("kij,kj->ki", inverse, rhs[live])
        duals = np.einsum("ki,kij->kj", np.take_along_axis(c, b, axis=1), inverse)
        reduced = c - np.einsum("ki,kin->kn", duals, a)
        rows = np.arange(len(live))
        reduced[rows[:, None], b] = 0.0
        rounding = ROUNDING * tol
        entering = (reduced < -rounding) & (np.arange(n) > barred[:, None])
        j = np.argmax(entering, axis=1)
        # with every improving column barred, one that gains more than CERT_TOL
        forced = ~entering[rows, j]
        gaining = reduced < -CERT_TOL * tol
        j = np.where(forced, np.argmax(gaining, axis=1), j)
        u = np.einsum("kij,kj->ki", inverse, a[rows, :, j])
        level = np.maximum(x, 0.0)
        rising = u > rounding
        pivot = np.where(rising, u, 1.0)
        reach = np.where(rising, (level + rounding) / pivot, np.inf).min(axis=1, keepdims=True)
        strong = u > PIVOT_TOL * tol
        ties = rising & (level <= reach * pivot) & (strong | forced[:, None])
        leave = np.argmin(np.where(ties, b + n * ~strong, 2 * n), axis=1)
        # 0 at an optimum, 2 with no row to bound the step, 1 on a start
        # that is infeasible, -1 to go on
        code = np.where(~forced | gaining[rows, j], np.where(np.isinf(reach[:, 0]), 2, -1), 0)
        if step == 0:
            code[x.min(axis=1) < -CERT_TOL * tol[:, 0]] = 1
        status[live] = code
        move = (code < 0) & ties[rows, leave]
        stuck = (code < 0) & ~move
        basis[live[move], leave[move]] = j[move]
        live, barred = live[code < 0], np.where(stuck, j, -1)[code < 0]
        if not len(live):
            break
    status[live] = 3
    return basis, status


def _hull_distances(points: np.ndarray, hulls: np.ndarray) -> np.ndarray:
    """L1 distance from each ``points[b]`` (shape (B, d)) to the convex hull
    of the rows of ``hulls[b]`` (shape (B, m, d)), all from one LP.

    Block b has weights lam >= 0 with sum 1 and slacks u+, u- >= 0 tied by
    hulls[b].T lam + u+ - u- = points[b], and minimises sum(u+ + u-).  It
    starts from lam = e_0 and the slack of each row that absorbs
    points[b] - hulls[b][0] with its sign.
    """
    k, m, d = hulls.shape
    blocks = np.zeros((k, d + 1, m + 2 * d))
    blocks[:, :d, :m] = hulls.transpose(0, 2, 1)
    blocks[:, :d, m:m + d] = np.eye(d)
    blocks[:, :d, m + d:] = -np.eye(d)
    blocks[:, d, :m] = 1.0
    cost = np.concatenate([np.zeros(m), np.ones(2 * d)])
    rhs = np.hstack([points, np.ones((k, 1))])
    slacks = m + np.arange(d) + d * (points < hulls[:, 0])
    basis = np.hstack([np.zeros((k, 1), dtype=int), slacks])
    x = linprog(np.broadcast_to(cost, (k, m + 2 * d)), blocks, rhs, basis, "hull LP")
    return x[:, m:].sum(axis=1)


def _spanning_columns(matrix: np.ndarray) -> np.ndarray:
    """Indices (K, r) of r columns of each block of ``matrix`` (K, r, N)
    that span its column space, if it has full row rank: Gram-Schmidt on the
    columns, each step taking the one with the largest residual."""
    k, r, _ = matrix.shape
    residual = matrix.copy()
    chosen = np.empty((k, r), dtype=int)
    for i in range(r):
        chosen[:, i] = np.argmax(np.einsum("kin,kin->kn", residual, residual), axis=1)
        q = residual[np.arange(k), :, chosen[:, i]]
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        residual -= q[:, :, None] * np.einsum("ki,kin->kn", q, residual)[:, None, :]
    return chosen


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
    ``affinely_independent`` holds when there are n - 1 such axes: the
    vertices span a simplex, and loading it solves no LP.
    """

    def __init__(self, vertices):
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.ndim != 2 or verts.shape[0] < 2:
            raise InputError("a polytope needs at least two vertices")
        if not np.all(np.isfinite(verts)):
            raise InputError("vertices must be finite")
        self.vertices = verts
        self.dim = verts.shape[1]
        # each column scaled by an exact power of two to at most 1 in
        # magnitude, so its sum cannot overflow: the mean, scaled back
        columns = np.frexp(np.max(np.abs(verts), axis=0))[1]
        self._center = np.ldexp(np.ldexp(verts, -columns).mean(axis=0), columns)
        # an exact power of two scales the centred vertices to at most 1: no spread is subnormal
        self._exponent = np.frexp(np.max(np.abs(verts - self._center)))[1]
        centred = np.ldexp(verts - self._center, -self._exponent)
        whitened, spread, axes = np.linalg.svd(centred, full_matrices=False)
        # an axis spans the affine hull only where its spread is well above
        # what rounding every entry at the input's magnitude can make
        rounding = 64 * np.finfo(float).eps * np.sqrt(verts.size) * np.max(np.abs(verts))
        keep = np.ldexp(spread, self._exponent) > rounding
        if not keep[0]:
            raise InputError("vertices 0 and 1 coincide")
        scale = np.max(np.abs(whitened[:, keep]))
        self._map = axes[keep].T / (spread[keep] * scale)
        # the component off the affine hull, in normalised units of the widest
        # axis; the LPs never see it, being rounding noise at the vertices
        self._off_hull = (np.eye(self.dim) - axes[keep].T @ axes[keep]) / (spread[0] * scale)
        self.normalised = centred @ self._map
        gaps = np.abs(self.normalised[:, None, :] - self.normalised[None, :, :]).sum(axis=2)
        close = np.argwhere(np.triu(gaps <= HULL_CUTOFF, 1))
        if len(close):
            raise InputError(f"vertices {close[0][0]} and {close[0][1]} coincide")
        # n vertices on n - 1 axes are affinely independent, hence all
        # extreme, with no hull LP: [whitened[:, keep] | 1 / sqrt(n)] is
        # orthogonal, so the normalised vertices, the rows of whitened[:, keep]
        # over scale (at most 1), form a regular simplex, each vertex at L2
        # distance at least sqrt(n / (n - 1)) from the hull of the others: far
        # above HULL_CUTOFF and the rounding an axis must rise above
        self.affinely_independent = bool(keep.sum() == len(verts) - 1)
        if not self.affinely_independent:
            distances = _hull_distances(self.normalised, self.normalised[_others(len(verts))])
            inside = np.flatnonzero(distances <= HULL_CUTOFF)
            if len(inside):
                raise InputError(
                    f"vertex {inside[0]} is not extreme (inside the hull of the others)")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def normalise(self, points) -> np.ndarray:
        """Points in the normalised coordinates of the LPs."""
        return np.ldexp(np.asarray(points, dtype=float) - self._center, -self._exponent) @ self._map

    def contains(self, zeta) -> bool:
        """Whether zeta lies within L1 distance ``HULL_CUTOFF`` of the hull, in
        normalised units: its distance within the affine hull plus its
        off-hull residual."""
        offset = np.ldexp(np.asarray(zeta, dtype=float) - self._center, -self._exponent)
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

    a(omega) = 1 fixes a = 1 + f . (x - omega), so per point e_omega(zeta) =
    1 + min f . (zeta - omega) s.t. -1 <= f . (v - omega) <= 0 on the other
    vertices.  By LP duality that minimum is -min sum(y+) s.t.
    E.T (y+ - y-) = zeta - omega, y+, y- >= 0, with E the edges v - omega:
    a block of d rows however many vertices there are, feasible since the
    edges span the normalised space and bounded below by 0.  Each block
    starts from d edges that span the space, each as y+ or y- by the sign
    of its coefficient in zeta - omega.  The K blocks are solved in one
    call.
    """
    verts = poly.normalised
    n = poly.n_vertices
    omegas = np.broadcast_to(np.asarray(omega_index), (len(zetas),))
    edges = (verts[_others(n)[omegas]] - verts[omegas][:, None, :]).transpose(0, 2, 1)
    rhs = zetas - verts[omegas]
    # the blocks of one extreme point share its edges: choose their span once
    extremes, first, blocks_of = np.unique(omegas, return_index=True, return_inverse=True)
    spanning = _spanning_columns(edges[first])[blocks_of]
    start = np.linalg.solve(np.take_along_axis(edges, spanning[:, None, :], axis=2), rhs[..., None])
    basis = spanning + (n - 1) * (start[..., 0] < 0)
    cost = np.concatenate([np.ones(n - 1), np.zeros(n - 1)])
    which = f"point {extremes[0]}" if len(extremes) == 1 else f"points {extremes.tolist()}"
    y = linprog(np.broadcast_to(cost, (len(zetas), 2 * n - 2)),
                np.concatenate([edges, -edges], axis=2), rhs, basis, f"LP for extreme {which}")
    return 1.0 - y[:, :n - 1].sum(axis=1)


def _e_omega_stacks(poly: PolytopeStateSpace, zetas: np.ndarray) -> np.ndarray:
    """Values of every e_omega at each row of ``zetas`` (shape (K, d),
    normalised coordinates): row w of the (n, K) result is extreme point w's.

    Whole extreme points are grouped into LPs of at most ``LP_STACK_ROWS``
    (query point, other vertex) pairs, an extreme point alone being one LP
    however many pairs it has.
    """
    n, k = poly.n_vertices, len(zetas)
    per_lp = max(1, LP_STACK_ROWS // ((n - 1) * k))
    values = np.empty((n, k))
    for start in range(0, n, per_lp):
        group = np.arange(start, min(start + per_lp, n))
        values[group] = _e_omega_normalised_lp(
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
        raise InputError(f"omega_index {omega_index} out of range")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (poly.dim,):
        raise InputError(f"query point must live in R^{poly.dim}")
    if not poly.contains(zeta):
        raise InfeasiblePointError("query point lies outside the convex hull")
    return float(_e_omega_lp(poly, omega_index, zeta[None, :])[0])


def check_extreme_affinity(poly: PolytopeStateSpace, tol: Tolerance = DEFAULT_TOL,
                           midpoint_samples: int = 0, seed: int = 0) -> list[EOmegaReport]:
    """Decide, per extreme point, whether its minimal unit effect is affine
    and attains 1 only there.

    e = e_omega is affine on the hull exactly when its vertex values are
    those of one affine function a.  Proof: a is then in [0, 1] at every
    vertex and a(omega) = 1, so a is feasible and e <= a; e is concave, being
    an infimum of affine functions, so at z = sum_i l_i v_i,
    e(z) >= sum_i l_i e(v_i) = a(z).  The affinity defect is the largest
    residual of the vertex values from their least-squares affine fit, 0 to
    rounding on a simplex, whose n = d + 1 vertices any values fit.  The gaps
    |e(c) - sum_i w_i e(v_i)| at ``midpoint_samples`` random convex
    combinations c = sum_i w_i v_i, an opt-in cross-check, enter it too.
    A nonzero ``check_tol`` bounds the residual, not the gaps, which can be
    larger (2 eps against 4/3 eps on a triangle with a fourth vertex eps past
    its hypotenuse), so near the tolerance the probes can change a verdict.
    """
    if midpoint_samples < 0:
        raise InputError("midpoint_samples must be nonnegative")
    verts, n = poly.normalised, poly.n_vertices
    combos = np.random.default_rng(seed).dirichlet(np.ones(n), size=midpoint_samples)
    # the vertices first, then every probe
    all_values = _e_omega_stacks(poly, np.vstack([verts, combos @ verts]))
    vertex_values = all_values[:, :n]
    # each e_omega's vertex values (a column) less their least-squares affine
    # fit, on the vertices centred afresh: rounding at a far shift leaves the
    # normalised ones off centre
    centred = verts - verts.mean(axis=0)
    values = vertex_values.T - vertex_values.mean(axis=1)
    residuals = values - centred @ np.linalg.solve(centred.T @ centred, centred.T @ values)
    defects = np.maximum(np.abs(residuals).max(axis=0), np.abs(
        all_values[:, n:] - vertex_values @ combos.T).max(axis=1, initial=0.0))
    max_off = np.where(np.eye(n, dtype=bool), -np.inf, vertex_values).max(axis=1)
    passes = (defects <= tol.check_tol) & (max_off <= 1.0 - 1e-6)
    return [EOmegaReport(w, tuple(map(float, vertex_values[w])), float(defects[w]),
                         float(max_off[w]), bool(passes[w])) for w in range(n)]


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
        raise InputError(f"polytope fails the affinity property at extreme points {failing}")
    if not poly.affinely_independent:
        raise InputError("vertex-value representation needs affinely independent vertices")
    return PolytopeAffineModel(poly)

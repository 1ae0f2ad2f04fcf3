import itertools
import json

import numpy as np
import pytest

from conftest import POLYTOPE_SHAPES, similar_copy
from jordantp import (
    InfeasiblePointError,
    PolytopeStateSpace,
    Tolerance,
    check_extreme_affinity,
    e_omega_value,
    get_model,
    induced_affine_model,
    polytope_from_csv,
    run_suite,
    tp_matrix,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    vertex_tp_matrix,
)
from jordantp import convexgeom
from jordantp.convexgeom import _e_omega_lp
from jordantp.errors import LinearProgramError

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[np.cos(2.0 * np.pi * k / 5 + np.pi / 2),
                      np.sin(2.0 * np.pi * k / 5 + np.pi / 2)] for k in range(5)])


def e_omega_by_enumeration(verts, omega_index, zeta):
    """Oracle: minimize c + f . zeta by enumerating basic feasible points of
    the vertex-value constraints; independent of the LP solver."""
    verts = np.asarray(verts, dtype=float)
    n_var = verts.shape[1] + 1
    rows = []
    for v in verts:
        rows.append((np.concatenate([[-1.0], -v]), 0.0))
        rows.append((np.concatenate([[1.0], v]), 1.0))
    eq_row = np.concatenate([[1.0], verts[omega_index]])
    objective = np.concatenate([[1.0], np.asarray(zeta, dtype=float)])
    best = np.inf
    for combo in itertools.combinations(range(len(rows)), n_var - 1):
        a = np.vstack([eq_row] + [rows[i][0] for i in combo])
        b = np.array([1.0] + [rows[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        z = np.linalg.solve(a, b)
        if all(np.dot(normal, z) <= rhs + 1e-9 for normal, rhs in rows):
            best = min(best, float(np.dot(objective, z)))
    return best


def test_triangle_vertex_values():
    poly = PolytopeStateSpace(TRIANGLE)
    assert e_omega_value(poly, 0, TRIANGLE[1]) == pytest.approx(0.0, abs=1e-10)
    assert e_omega_value(poly, 0, TRIANGLE[2]) == pytest.approx(0.0, abs=1e-10)
    assert e_omega_value(poly, 0, TRIANGLE[0]) == pytest.approx(1.0, abs=1e-12)


def test_square_corner_and_center():
    poly = PolytopeStateSpace(SQUARE)
    # the two edge functions force zero at every other corner
    for j in (1, 2, 3):
        assert e_omega_value(poly, 0, SQUARE[j]) == pytest.approx(0.0, abs=1e-10)
    assert e_omega_value(poly, 0, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-10)


def test_lp_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for verts in (TRIANGLE, SQUARE, PENTAGON):
        poly = PolytopeStateSpace(verts)
        for w in range(len(verts)):
            for _ in range(4):
                lam = rng.dirichlet(np.ones(len(verts)))
                zeta = verts.T @ lam
                got = e_omega_value(poly, w, zeta)
                want = e_omega_by_enumeration(verts, w, zeta)
                assert got == pytest.approx(want, abs=1e-9)
            # one stacked LP answers every point of a stack, vertices included
            points = np.vstack([verts, rng.dirichlet(np.ones(len(verts)), size=4) @ verts])
            want = [e_omega_by_enumeration(verts, w, zeta) for zeta in points]
            np.testing.assert_allclose(_e_omega_lp(poly, w, points), want, rtol=0, atol=1e-9)


def test_triangle_passes_affinity():
    reports = check_extreme_affinity(PolytopeStateSpace(TRIANGLE), midpoint_samples=32)
    assert all(r.passes for r in reports)
    assert max(r.affinity_defect for r in reports) <= 1e-9
    # e_omega are the barycentric coordinates: 1 at omega, 0 elsewhere
    for r in reports:
        values = np.array(r.values_at_vertices)
        assert values[r.omega_index] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.delete(values, r.omega_index)) <= 1e-10


def pairwise_midpoint_gaps(poly, omega_index):
    """e_omega at each pairwise vertex midpoint minus the mean of its two
    vertex values, from ``_e_omega_lp``: entry [i, j] for i < j."""
    verts = poly.vertices
    n = poly.n_vertices
    at_vertices = _e_omega_lp(poly, omega_index, verts)
    first, second = np.triu_indices(n, 1)
    gaps = np.zeros((n, n))
    gaps[first, second] = (_e_omega_lp(poly, omega_index, 0.5 * (verts[first] + verts[second]))
                           - 0.5 * (at_vertices[first] + at_vertices[second]))
    return gaps


def test_square_fails_with_half_defect():
    poly = PolytopeStateSpace(SQUARE)
    reports = check_extreme_affinity(poly, midpoint_samples=16)
    assert not any(r.passes for r in reports)
    for w in range(4):
        # the diagonal midpoint representation exposes the non-affinity: the
        # centre halves the diagonal whose ends e_w sends to 0
        gaps = pairwise_midpoint_gaps(poly, w)
        i, j = sorted(((w + 1) % 4, (w + 3) % 4))
        assert gaps[i, j] == pytest.approx(0.5, abs=1e-6)
        assert np.max(gaps) == pytest.approx(0.5, abs=1e-6)
    # the centroid certificate alone: e_w(centre) - mean e_w(v_i) = 1/2 - 1/4
    for r in check_extreme_affinity(poly):
        assert r.affinity_defect == pytest.approx(0.25, abs=1e-6)
        assert not r.passes


@pytest.mark.parametrize("dim", [3, 4])
def test_simplices_pass(dim):
    verts = np.vstack([np.zeros(dim), np.eye(dim)])
    reports = check_extreme_affinity(PolytopeStateSpace(verts), midpoint_samples=16)
    assert all(r.passes for r in reports)
    assert max(r.affinity_defect for r in reports) <= 1e-9


def test_pentagon_fails_with_positive_defect():
    poly = PolytopeStateSpace(PENTAGON)
    reports = check_extreme_affinity(poly, midpoint_samples=16)
    assert not any(r.passes for r in reports)
    # golden-ratio geometry: the worst midpoint defect is sqrt(5) - 2
    worst = max(np.max(np.abs(pairwise_midpoint_gaps(poly, w))) for w in range(5))
    assert worst == pytest.approx(np.sqrt(5.0) - 2.0, abs=1e-9)
    # and the centroid gap is 2/5 of it at every extreme point
    for r in check_extreme_affinity(poly):
        assert r.affinity_defect == pytest.approx(0.4 * (np.sqrt(5.0) - 2.0), abs=1e-9)


def test_e_omega_below_feasible_functions():
    # pointwise infimum: e_omega never exceeds a feasible affine function
    poly = PolytopeStateSpace(SQUARE)
    feasible = [(0.0, np.array([1.0, 0.0])),   # 1 on the right edge, 0 on the left
                (0.0, np.array([0.0, 1.0]))]   # 1 on the top edge, 0 on the bottom
    rng = np.random.default_rng(3)
    for c, f in feasible:
        assert c + np.dot(f, SQUARE[2]) == 1.0  # pinned at omega_2
        for _ in range(8):
            lam = rng.dirichlet(np.ones(4))
            zeta = SQUARE.T @ lam
            assert e_omega_value(poly, 2, zeta) <= c + np.dot(f, zeta) + 1e-9


def test_infeasible_point_raises():
    poly = PolytopeStateSpace(TRIANGLE)
    with pytest.raises(InfeasiblePointError):
        e_omega_value(poly, 0, [2.0, 2.0])


def test_polytope_validation():
    with pytest.raises(ValueError):
        PolytopeStateSpace([[0.0, 0.0]])
    with pytest.raises(ValueError):
        PolytopeStateSpace([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):  # the center is not extreme
        PolytopeStateSpace(np.vstack([SQUARE, [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_vertex_is_refused(bad):
    verts = TRIANGLE.copy()
    verts[1, 0] = bad
    with pytest.raises(ValueError, match="^vertices must be finite$"):
        PolytopeStateSpace(verts)


def test_polytope_csv(tmp_path):
    path = tmp_path / "triangle.csv"
    np.savetxt(path, TRIANGLE, delimiter=",")
    poly = polytope_from_csv(path)
    assert poly.n_vertices == 3


@pytest.mark.parametrize("spec", [("lpq", 2, 1.1), ("lpq", 2, 1.5), ("spin", 2), ("lpq", 2, 3.0)],
                         ids=lambda spec: ":".join(map(str, spec)))
def test_inscribed_polygon_e_omega_approaches_the_closed_form_tp(spec):
    # the paper's e_omega of N-gons inscribed in the unit l^p circle, by LP,
    # against the backend's closed-form transition probability to vertex 0:
    # two kernels that share nothing.  The error falls at first order in N
    # (about 1.6/N on the circle, at most 2.1/N here)
    model = get_model(*spec)
    p = getattr(model, "p", 2.0)
    errors = []
    for n in (16, 32, 64):
        angles = 0.37 + 2.0 * np.pi * np.arange(n) / n
        vertices = np.column_stack((np.cos(angles), np.sin(angles)))
        vertices /= np.sum(np.abs(vertices) ** p, axis=1, keepdims=True) ** (1.0 / p)
        poly = PolytopeStateSpace(vertices)
        closed_form = model.transitions_from_params(vertices, np.tile(vertices[0], (n, 1)))
        errors.append(float(np.abs(_e_omega_lp(poly, 0, poly.vertices) - closed_form).max()))
        assert errors[-1] <= 2.5 / n
    assert all(coarse >= 1.8 * fine for coarse, fine in zip(errors, errors[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_simplex_classicality_tp_identity(n):
    # the standard simplex is the state space of classical:n, whose basis
    # atoms are certain of themselves and never of each other
    classical = get_model("classical", n)
    atoms_tp = tp_matrix(classical, [classical.atom(i) for i in range(n)]).matrix
    np.testing.assert_array_equal(atoms_tp, np.eye(n))
    rng = np.random.default_rng(n)
    corner = np.vstack([np.zeros(n - 1), np.eye(n - 1)])
    for verts in (np.eye(n), similar_copy(np.eye(n), rng), corner):
        mat = vertex_tp_matrix(PolytopeStateSpace(verts))
        np.testing.assert_allclose(mat, atoms_tp, rtol=0, atol=1e-12)


def test_induced_model_on_triangle():
    model = induced_affine_model(PolytopeStateSpace(TRIANGLE))
    assert model.kind == "polytope_affine"
    assert model.ambient_dim == 3
    for check in verify_atom_state_uniqueness(model, 1, 30):
        assert check.passed, check
    for check in verify_certainty_order(model, 2, 30):
        assert check.passed, check


@pytest.mark.parametrize("name", ["triangle", "tetrahedron"])
@pytest.mark.parametrize("seed", [0, 1])
def test_induced_model_passes_every_suite(name, seed):
    # the induced model is a classical subclass with its own kind string; it
    # must reach the classical formulas through the backend, not fall through
    # a kind switch into another backend's branch
    vertices, _ = POLYTOPE_SHAPES[name]
    model = induced_affine_model(PolytopeStateSpace(vertices))
    report = run_suite(model, "all", seed, 40)
    assert [c.name for c in report.checks if not c.passed] == []
    names = {c.name for c in report.checks}
    assert {"spectral.cone_matches_oracle", "peel.matches_spectrum"} <= names


def test_induced_model_rejects_square():
    with pytest.raises(ValueError):
        induced_affine_model(PolytopeStateSpace(SQUARE), midpoint_samples=8)


def test_affine_function_and_vertex_value_map():
    from jordantp import AffineFunction
    func = AffineFunction(0.5, np.array([1.0, -1.0]))
    assert func([0.25, 0.25]) == pytest.approx(0.5)
    model = induced_affine_model(PolytopeStateSpace(TRIANGLE))
    element = model.affine_to_element(func)
    np.testing.assert_allclose(element.coords, [0.5, 1.5, -0.5])


def test_e_omega_report_values_in_unit_range():
    reports = check_extreme_affinity(PolytopeStateSpace(PENTAGON), midpoint_samples=8)
    for r in reports:
        values = np.array(r.values_at_vertices)
        assert np.all(values >= -1e-9) and np.all(values <= 1.0 + 1e-9)


def e_omega_per_point(poly, omega_index, zeta):
    """Reference: the single-point LP, one fresh solve per query point."""
    from scipy.optimize import linprog

    verts = poly.vertices
    ones = np.ones((len(verts), 1))
    a_ub = np.vstack([np.hstack([-ones, -verts]), np.hstack([ones, verts])])
    b_ub = np.concatenate([np.zeros(len(verts)), np.ones(len(verts))])
    a_eq = np.concatenate([[1.0], verts[omega_index]])[None, :]
    objective = np.concatenate([[1.0], zeta])
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] * (poly.dim + 1), method="highs")
    assert res.status == 0, f"reference LP failed: {res.message}"
    return float(res.fun)


def _probe_points(verts, rng):
    """Vertices, two vertex midpoints and three random convex combinations."""
    n = len(verts)
    mids = [(verts[0] + verts[1]) / 2, (verts[0] + verts[n - 1]) / 2]
    return np.vstack([verts, mids, rng.dirichlet(np.ones(n), size=3) @ verts])


@pytest.mark.parametrize("similar", [False, True])
@pytest.mark.parametrize("shape", list(POLYTOPE_SHAPES))
def test_stacked_lp_matches_per_point_lp(monkeypatch, shape, similar):
    rng = np.random.default_rng(41)
    verts = POLYTOPE_SHAPES[shape][0]
    if similar:
        verts = similar_copy(verts, rng)
    poly = PolytopeStateSpace(verts)
    points = _probe_points(verts, rng)
    want = [[e_omega_per_point(poly, w, zeta) for zeta in points] for w in range(poly.n_vertices)]
    calls = _counting_linprog(monkeypatch)
    # every shipped shape fits all its extreme points in one stack
    got = convexgeom._e_omega_stacks(poly, poly.normalise(points))
    assert len(calls) == 1
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for w in range(poly.n_vertices):
        np.testing.assert_allclose(_e_omega_lp(poly, w, points), want[w], rtol=0, atol=1e-12)


def _counting_linprog(monkeypatch, fail=(), rows=None):
    """Wrap convexgeom.linprog: record the kind of each solve, "hull" or
    "e_omega", and make block 0 of the solves numbered in ``fail`` (from 0)
    unbounded by negating its cost; append the (query point, other vertex)
    pairs of each e_omega solve, two columns of its blocks each, to ``rows``
    if given."""
    calls = []
    solve = convexgeom.linprog

    def counted(cost, matrix, rhs, basis, what):
        calls.append("hull" if what == "hull LP" else "e_omega")
        if rows is not None and calls[-1] == "e_omega":
            rows.append(matrix.shape[0] * matrix.shape[2] // 2)
        if len(calls) - 1 in fail:
            cost = cost.copy()
            cost[0] *= -1.0
        return solve(cost, matrix, rhs, basis, what)

    monkeypatch.setattr(convexgeom, "linprog", counted)
    return calls


@pytest.mark.parametrize("shape,midpoint_samples,n_lps", [("hexagon", 55, 2), ("cube", 220, 8)])
def test_split_stacks_match_per_point_lp(monkeypatch, shape, midpoint_samples, n_lps):
    # the budget splits the hexagon's stack; with 220 random probes a single
    # extreme point of the cube exceeds it and is one LP on its own
    poly = PolytopeStateSpace(similar_copy(POLYTOPE_SHAPES[shape][0], np.random.default_rng(7)))
    combos = _probe_combos(poly.n_vertices, midpoint_samples, 3)
    probes = combos @ poly.vertices
    calls = _counting_linprog(monkeypatch)
    reports = check_extreme_affinity(poly, midpoint_samples=midpoint_samples, seed=3)
    assert len(calls) == n_lps
    for r in reports:
        at_vertices = [e_omega_per_point(poly, r.omega_index, v) for v in poly.vertices]
        at_probes = [e_omega_per_point(poly, r.omega_index, zeta) for zeta in probes]
        np.testing.assert_allclose(r.values_at_vertices, at_vertices, rtol=0, atol=1e-12)
        defect = np.max(np.abs(np.array(at_probes) - combos @ at_vertices))
        assert r.affinity_defect == pytest.approx(defect, rel=0, abs=1e-12)


@pytest.mark.parametrize("shape,affinity_lps", [("triangle", 1), ("square", 1), ("cube", 1)])
def test_one_lp_per_stack(monkeypatch, shape, affinity_lps):
    poly = PolytopeStateSpace(POLYTOPE_SHAPES[shape][0])
    n = poly.n_vertices
    calls = _counting_linprog(monkeypatch)
    check_extreme_affinity(poly, midpoint_samples=8)
    # per extreme point, n - 1 rows for each vertex and probe: the centroid
    # and the 8 random combinations
    rows = (n - 1) * (n + 1 + 8)
    assert len(calls) == affinity_lps == -(-n // max(1, convexgeom.LP_STACK_ROWS // rows))
    calls.clear()
    vertex_tp_matrix(poly)
    assert (n - 1) * n * n <= convexgeom.LP_STACK_ROWS
    assert len(calls) == 1


def test_lp_failure_raises_after_one_attempt(monkeypatch):
    poly = PolytopeStateSpace(PENTAGON)
    calls = _counting_linprog(monkeypatch, fail={0})
    with pytest.raises(LinearProgramError,
                       match="LP for extreme point 2 failed: block 0 of 5 is unbounded"):
        _e_omega_lp(poly, 2, PENTAGON)
    assert calls == ["e_omega"]
    calls.clear()
    with pytest.raises(LinearProgramError, match=r"LP for extreme points \[0, 1, 2, 3, 4\] failed: "
                       "block 0 of 30 is unbounded"):
        check_extreme_affinity(poly)
    assert calls == ["e_omega"]


@pytest.mark.parametrize("failing,what", [
    (0, "hull LP failed: block 0 of 5"),
    (1, "LP for extreme points [0, 1, 2, 3, 4] failed: block 0 of 30")])
def test_a_failed_lp_exits_three(tmp_path, capsys, monkeypatch, failing, what):
    # every LP is the library's own, built from a polytope it accepted, so a
    # block that fails is an internal failure, not the user's input error
    from jordantp.cli import main

    path = tmp_path / "pentagon.csv"
    np.savetxt(path, PENTAGON, delimiter=",", fmt="%.17g")
    calls = _counting_linprog(monkeypatch, fail={failing})
    code = main(["geom", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == f"error: internal failure: LinearProgramError: {what} is unbounded\n"
    assert calls == ["hull", "e_omega"][:failing + 1]


def in_hull_by_feasibility(verts, zeta, exclude=None):
    """Reference: the per-point feasibility LP, one fresh solve per point."""
    from scipy.optimize import linprog

    if exclude is not None:
        verts = np.delete(verts, exclude, axis=0)
    k = len(verts)
    res = linprog(np.zeros(k), A_eq=np.vstack([verts.T, np.ones(k)]),
                  b_eq=np.concatenate([zeta, [1.0]]), bounds=[(0, None)] * k, method="highs")
    return bool(res.status == 0)


def _normalised(verts):
    centred = verts - verts.mean(axis=0)
    return centred / np.max(np.abs(centred))


@pytest.mark.parametrize("seed", range(6))
def test_stacked_hull_lp_matches_feasibility_oracle(seed):
    # Gaussian clouds: most points are inside the hull of the others
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 3
    cloud = rng.normal(size=(8 + 2 * seed, dim)) * rng.uniform(0.1, 10.0) + rng.normal(size=dim)
    want = [not in_hull_by_feasibility(cloud, cloud[i], exclude=i) for i in range(len(cloud))]
    assert 0 < sum(want) < len(cloud)
    normalised = _normalised(cloud)
    distances = convexgeom._hull_distances(normalised, normalised[convexgeom._others(len(cloud))])
    assert (distances > convexgeom.HULL_CUTOFF).tolist() == want
    with pytest.raises(ValueError, match=f"vertex {want.index(False)} is not extreme"):
        PolytopeStateSpace(cloud)
    extreme = cloud[np.array(want)]
    assert PolytopeStateSpace(extreme).n_vertices == len(extreme)


@pytest.mark.parametrize("seed", range(24))
def test_random_polytopes_match_per_point_highs(seed):
    # Gaussian clouds in R^2 to R^5, every third one stretched by 1e-2 to 1e2
    # and moved away.  The per-point HiGHS solves run on the normalised
    # vertices: e_omega is affine invariant, and on the raw vertices of seed
    # 14, a stretched 4-simplex, HiGHS read the TP matrix 3.6e-12 off the
    # identity, with its feasibility tolerances at 1e-7 or at 1e-10
    rng = np.random.default_rng(seed)
    d = 2 + seed % 4
    cloud = rng.normal(size=(d + 1 + rng.integers(0, 4), d))
    if seed % 3 == 2:
        left, _ = np.linalg.qr(rng.normal(size=(d, d)))
        right, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cloud = cloud @ (left @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, d)) @ right).T
        cloud += 100.0 * rng.normal(size=d)
    extreme = np.array([not in_hull_by_feasibility(cloud, x, exclude=i)
                        for i, x in enumerate(cloud)])
    if not extreme.all():
        with pytest.raises(ValueError, match=f"vertex {np.argmin(extreme)} is not extreme"):
            PolytopeStateSpace(cloud)
    poly = PolytopeStateSpace(cloud[extreme])
    n = poly.n_vertices
    reference = PolytopeStateSpace(poly.normalised)
    want = np.array([[e_omega_per_point(reference, w, v) for w in range(n)]
                     for v in poly.normalised])
    np.testing.assert_allclose(vertex_tp_matrix(poly), want, rtol=0, atol=1e-12)
    combos = _probe_combos(n, 4, seed)
    reports = check_extreme_affinity(poly, midpoint_samples=4, seed=seed)
    for r in reports:
        at_probes = [e_omega_per_point(reference, r.omega_index, zeta)
                     for zeta in combos @ poly.normalised]
        defect = np.max(np.abs(np.array(at_probes) - combos @ want[:, r.omega_index]))
        np.testing.assert_allclose(r.values_at_vertices, want[:, r.omega_index], rtol=0, atol=1e-12)
        assert r.affinity_defect == pytest.approx(defect, rel=0, abs=1e-12)
        assert r.passes == (defect <= Tolerance().check_tol
                            and np.delete(want[:, r.omega_index], r.omega_index).max() <= 1 - 1e-6)
    assert all(r.passes for r in reports) == (n == d + 1)


@pytest.mark.parametrize("d,seed", [(4, 1), (4, 7), (4, 8), (5, 6), (5, 7)])
def test_far_stretched_cubes_keep_their_answers(d, seed):
    # cubes stretched by 1e-3 to 1e3 along rotated axes and moved up to 1e6
    # away, whose normalised vertices carry rounding up to 1e-8: with pivots
    # down to 1e-9 the simplex met bases of condition 1e9 to 1e12, among
    # which it cycled or found one singular.  The cube's TP matrix is the
    # identity, and every extreme point fails
    rng = np.random.default_rng(seed)
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    left, _ = np.linalg.qr(rng.normal(size=(d, d)))
    right, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vertices = cube @ (left @ np.diag(10.0 ** rng.uniform(-3.0, 3.0, d)) @ right).T
    poly = PolytopeStateSpace(vertices + rng.normal(size=d) * 10.0 ** rng.uniform(0.0, 6.0))
    np.testing.assert_allclose(vertex_tp_matrix(poly), np.eye(2 ** d), rtol=0, atol=1e-6)
    assert not any(r.passes for r in check_extreme_affinity(poly, midpoint_samples=8, seed=seed))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shift", [1e-6, 1e8])
def test_hull_cutoff_near_the_boundary(dim, shift):
    # the cube [-1, 1]^d plus the points +-(1 + delta) e_1: each lies at L1
    # distance delta from the hull of the others; whitening shrinks the e_1
    # axis against the others by sqrt(2^d / (2^d + 2)), so the normalised
    # distance is 0.82 delta in 2-D and 0.89 delta in 3-D
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
    cutoff = convexgeom.HULL_CUTOFF

    def with_caps(delta):
        cap = np.zeros(dim)
        cap[0] = 1.0 + delta
        return shift + np.vstack([cube, cap, -cap])

    assert PolytopeStateSpace(with_caps(10.0 * cutoff)).n_vertices == 2 ** dim + 2
    for delta in (0.1 * cutoff, 0.0, -0.1 * cutoff):
        with pytest.raises(ValueError, match=f"vertex {2 ** dim} is not extreme"):
            PolytopeStateSpace(with_caps(delta))


def test_contains_near_the_boundary():
    # the square's centred entries are at most 1/2: normalised distance 2a
    poly = PolytopeStateSpace(SQUARE)
    cutoff = convexgeom.HULL_CUTOFF
    assert not poly.contains([1.0 + 5.0 * cutoff, 0.5])
    assert poly.contains([1.0 + 0.05 * cutoff, 0.5])
    assert poly.contains([0.5, 0.5]) and poly.contains(SQUARE[2])
    assert not poly.contains([-0.5, 0.5])


@pytest.mark.parametrize("scale", [1e-13, 1e-10, 1.0, 1e13])
def test_coincidence_is_scale_free(scale):
    assert PolytopeStateSpace(TRIANGLE * scale).n_vertices == 3
    with pytest.raises(ValueError, match="vertices 1 and 3 coincide"):
        PolytopeStateSpace(np.vstack([TRIANGLE, TRIANGLE[1]]) * scale)
    with pytest.raises(ValueError, match="vertices 0 and 1 coincide"):
        PolytopeStateSpace(np.full((3, 2), scale))


@pytest.mark.parametrize("axes", ["plain", "graded", "random"])
@pytest.mark.parametrize("d", range(1, 7))
def test_simplex_tp_matrix_is_the_identity(tmp_path, capsys, d, axes):
    # on a d-simplex e_omega is the barycentric coordinate of omega, so the
    # vertex values are exactly 0 and 1 whatever the axes' scales
    scales = {"plain": np.ones(d), "graded": np.array([1.0, 1e-3, 1e-5, 1.0, 10.0, 0.1])[:d],
              "random": 10.0 ** np.random.default_rng(d).uniform(-5.0, 1.0, d)}[axes]
    vertices = np.vstack([np.zeros(d), np.eye(d)]) * scales
    np.testing.assert_allclose(vertex_tp_matrix(PolytopeStateSpace(vertices)), np.eye(d + 1),
                               rtol=0, atol=1e-15)
    from jordantp.cli import main

    path = tmp_path / "simplex.csv"
    np.savetxt(path, vertices, delimiter=",", fmt="%.17g")
    assert main(["geom", str(path), "--midpoint-samples", "16"]) == 0
    assert all(r["passes"] for r in json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("squash", [1e-7, 1e-9])
def test_anisotropic_triangle_passes_geom(tmp_path, capsys, squash):
    # the short axis is whitened before any cutoff applies, so the squashed
    # triangle is a simplex like any other
    from jordantp.cli import main

    path = tmp_path / "squashed.csv"
    np.savetxt(path, TRIANGLE * [1.0, squash], delimiter=",", fmt="%.17g")
    assert main(["geom", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["passes"] for r in reports] == [True, True, True]
    poly = PolytopeStateSpace(TRIANGLE * [1.0, squash])
    assert poly.contains([0.25, 0.25 * squash])
    assert not poly.contains([0.25, -0.25 * squash])


def test_contains_rejects_points_off_the_affine_hull():
    # a triangle in the plane z = 0 of R^3: the hull LP sees only the
    # projection, so the off-hull residual decides
    poly = PolytopeStateSpace(np.column_stack([TRIANGLE, np.zeros(3)]))
    cutoff = convexgeom.HULL_CUTOFF
    assert poly.normalised.shape == (3, 2)
    assert poly.contains([0.25, 0.25, 0.0])
    assert poly.contains([0.25, 0.25, 0.1 * cutoff])
    assert not poly.contains([0.25, 0.25, 10.0 * cutoff])
    with pytest.raises(InfeasiblePointError):
        e_omega_value(poly, 0, [0.25, 0.25, 1e-3])


@pytest.mark.parametrize("shift", [1e6, 1e8])
def test_e_omega_value_on_a_far_embedded_square(shift):
    # the square on a tilted plane of R^3, moved far away: rounding puts its
    # vertices off the plane, which must not reach the LPs as an axis, so e
    # at the centroid stays 1/2
    rng = np.random.default_rng(1)
    square = SQUARE @ rng.normal(size=(3, 2)).T + rng.normal(size=3) + shift
    poly = PolytopeStateSpace(square)
    assert poly.normalised.shape == (4, 2)
    assert e_omega_value(poly, 0, square.mean(axis=0)) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("shape", ["triangle", "square", "cube"])
def test_load_and_contains_solve_one_lp_each(monkeypatch, shape):
    vertices = POLYTOPE_SHAPES[shape][0]
    calls = _counting_linprog(monkeypatch)
    poly = PolytopeStateSpace(vertices)
    assert calls == ["hull"]
    calls.clear()
    assert poly.contains(vertices.mean(axis=0))
    assert calls == ["hull"]
    calls.clear()
    e_omega_value(poly, 0, vertices.mean(axis=0))
    assert calls == ["hull", "e_omega"]


def _probe_combos(n, midpoint_samples, seed, midpoints=False):
    """The convex weights of ``check_extreme_affinity``'s probes, one row
    each: the centroid, then the random ones.  With ``midpoints``, the
    pairwise midpoints, which it probes only for an extreme point in the
    tolerance band, follow the centroid."""
    rng = np.random.default_rng(seed)
    combos = [np.full(n, 1.0 / n)]
    for i in range(n if midpoints else 0):
        for j in range(i + 1, n):
            lam = np.zeros(n)
            lam[i] = lam[j] = 0.5
            combos.append(lam)
    for _ in range(midpoint_samples):
        combos.append(rng.dirichlet(np.ones(n)))
    return np.array(combos)


def affinity_defects_by_loop(poly, combos):
    """Reference: the defect of each omega over the probes with the convex
    weights ``combos`` (one row each), one np.dot per probe."""
    verts = poly.normalised
    n = poly.n_vertices
    points = np.vstack([verts] + [verts.T @ lam for lam in combos])
    defects = []
    for w in range(n):
        values = convexgeom._e_omega_normalised_lp(poly, w, points)
        defect = 0.0
        for lam, value in zip(combos, values[n:]):
            defect = max(defect, abs(float(value) - float(np.dot(lam, values[:n]))))
        defects.append(defect)
    return defects


@pytest.mark.parametrize("shape", list(POLYTOPE_SHAPES))
def test_vectorised_defect_matches_loop(shape):
    # the probes are summed in another order, so values agree to rounding
    poly = PolytopeStateSpace(POLYTOPE_SHAPES[shape][0])
    reports = check_extreme_affinity(poly, midpoint_samples=12, seed=5)
    combos = _probe_combos(poly.n_vertices, 12, 5)
    np.testing.assert_allclose([r.affinity_defect for r in reports],
                               affinity_defects_by_loop(poly, combos), rtol=0, atol=1e-13)


# The triangle with its hypotenuse pushed out by 1e-5: a quadrilateral whose
# centroid gaps (1e-5 at vertices 0 and 3, 5e-6 at 1 and 2) are tiny, while
# the midpoint gaps are twice as large.
NEAR_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5 + 1e-5, 0.5 + 1e-5]])


def test_centroid_gap_in_the_band_falls_back_to_midpoints(monkeypatch):
    # check_tol / n = 3.75e-6 < every centroid gap <= check_tol: each omega
    # is in the band, and the midpoints fail vertices 0 and 3, whose centroid
    # gaps alone would pass
    poly = PolytopeStateSpace(NEAR_TRIANGLE)
    tol = Tolerance(check_tol=1.5e-5)
    calls = _counting_linprog(monkeypatch)
    reports = check_extreme_affinity(poly, tol)
    assert len(calls) == 2  # every omega's vertices and centroid, then the midpoints
    every_probe = affinity_defects_by_loop(poly, _probe_combos(4, 0, 0, midpoints=True))
    np.testing.assert_allclose([r.affinity_defect for r in reports], every_probe,
                               rtol=0, atol=1e-13)
    assert [r.passes for r in reports] == [False, True, True, False]
    centroid_only = affinity_defects_by_loop(poly, _probe_combos(4, 0, 0))
    assert max(centroid_only) <= tol.check_tol < min(every_probe[0], every_probe[3])


def test_centroid_gap_below_the_band_solves_no_midpoint_lp(monkeypatch):
    # every centroid gap is at most check_tol / n = 2.5e-5: exact, and the
    # stack of vertices and centroids is the only affinity LP
    poly = PolytopeStateSpace(NEAR_TRIANGLE)
    tol = Tolerance(check_tol=1e-4)
    calls = _counting_linprog(monkeypatch)
    reports = check_extreme_affinity(poly, tol)
    assert len(calls) == 1
    np.testing.assert_allclose([r.affinity_defect for r in reports],
                               affinity_defects_by_loop(poly, _probe_combos(4, 0, 0)),
                               rtol=0, atol=1e-13)
    assert all(r.passes for r in reports)


def test_band_midpoints_keep_the_row_budget(monkeypatch):
    # the triangle with nine points bulging out of its hypotenuse by at most
    # 1e-4: n = 12, and the midpoints of one omega are 726 rows, so the
    # band's omegas go two to an LP rather than all in one LP over the budget
    t = np.arange(1, 10) / 10
    bulge = np.column_stack([1 - t, t]) + (4e-4 * t * (1 - t))[:, None]
    poly = PolytopeStateSpace(np.vstack([TRIANGLE, bulge]))
    n = poly.n_vertices
    tol = Tolerance(check_tol=1.2e-4)
    centroid_only = np.array(affinity_defects_by_loop(poly, _probe_combos(n, 0, 0)))
    every_probe = affinity_defects_by_loop(poly, _probe_combos(n, 0, 0, midpoints=True))
    in_band = (centroid_only > tol.check_tol / n) & (centroid_only <= tol.check_tol)
    assert in_band.sum() >= 2
    rows = []
    _counting_linprog(monkeypatch, rows=rows)
    reports = check_extreme_affinity(poly, tol)
    one_omega = (n - 1) * n * (n - 1) // 2
    assert convexgeom.LP_STACK_ROWS // one_omega == 2
    first_pass = -(-n // (convexgeom.LP_STACK_ROWS // ((n - 1) * (n + 1))))
    band_lps = [one_omega * min(2, in_band.sum() - i) for i in range(0, in_band.sum(), 2)]
    assert rows[first_pass:] == band_lps
    assert max(rows) <= convexgeom.LP_STACK_ROWS
    np.testing.assert_allclose([r.affinity_defect for r in reports],
                               np.where(in_band, every_probe, centroid_only), rtol=0, atol=1e-13)


def test_band_skips_an_omega_a_random_probe_failed(monkeypatch):
    # every centroid gap is in the band of check_tol = 1.5e-5, but random
    # probes already fail vertices 1 and 2 (defect 1.76e-5), so only 0 and
    # 3 (random defect 1.22e-5) get midpoints, which fail them too
    poly = PolytopeStateSpace(NEAR_TRIANGLE)
    tol = Tolerance(check_tol=1.5e-5)
    rows = []
    _counting_linprog(monkeypatch, rows=rows)
    reports = check_extreme_affinity(poly, tol, midpoint_samples=16, seed=4)
    one_omega = 3 * 6
    assert rows == [4 * 3 * (4 + 1 + 16), 2 * one_omega]
    assert not any(r.passes for r in reports)


def test_regular_32_gon_probes_no_midpoints(monkeypatch):
    # the midpoints would add n(n - 1)/2 = 496 probes to each extreme point
    n = 32
    angles = 2.0 * np.pi * np.arange(n) / n
    poly = PolytopeStateSpace(np.column_stack([np.cos(angles), np.sin(angles)]))
    rows = []
    _counting_linprog(monkeypatch, rows=rows)
    reports = check_extreme_affinity(poly, midpoint_samples=0)
    # n - 1 rows for each vertex and the centroid, for every extreme point
    assert sum(rows) == n * (n - 1) * (n + 1)
    assert not any(r.passes for r in reports)


# A polytope in R^4 on which every pairwise midpoint of e_4 sits on the
# affine interpolant of its vertex values; only the centroid exposes it.
MIDPOINT_BLIND = np.vstack([np.eye(4), -0.25 * np.ones(4), 0.3 * np.ones(4)])


def test_centroid_certificate_catches_what_midpoints_miss():
    poly = PolytopeStateSpace(MIDPOINT_BLIND)
    midpoints = _probe_combos(poly.n_vertices, 0, 0, midpoints=True)[1:]
    assert affinity_defects_by_loop(poly, midpoints)[4] <= 1e-12
    report = check_extreme_affinity(poly, midpoint_samples=0)[4]
    assert report.affinity_defect == pytest.approx(2.0 / 33.0, abs=1e-9)
    assert not report.passes


def test_geom_fails_the_midpoint_blind_polytope(tmp_path, capsys):
    from jordantp.cli import main

    path = tmp_path / "blind.csv"
    np.savetxt(path, MIDPOINT_BLIND, delimiter=",")
    assert main(["geom", str(path), "--midpoint-samples", "0"]) == 1
    report = json.loads(capsys.readouterr().out)[4]
    assert report["affinity_defect"] == pytest.approx(2.0 / 33.0, abs=1e-9)
    assert report["passes"] is False

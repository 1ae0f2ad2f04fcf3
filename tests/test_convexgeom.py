import itertools
import json

import numpy as np
import pytest

from conftest import AFFINITY_DEFECTS, SHAPES, load_module, similar_copy
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

TRIANGLE, SQUARE = SHAPES["triangle"][0], SHAPES["square"][0]
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
    # the fit residual alone: e_w's vertex values are 1 at w and 0 elsewhere,
    # 1/4 (1, -1, 1, -1) off their affine fit
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
    # and the fit residual is (3 - sqrt 5) / 5 at every extreme point
    for r in check_extreme_affinity(poly):
        assert r.affinity_defect == pytest.approx((3.0 - np.sqrt(5.0)) / 5.0, abs=1e-9)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_the_defect_is_the_closed_form_fit_residual(shape):
    # without probes the defect is the residual alone; the shapes are exact
    # in binary or nearly so, and their normalised vertices well conditioned
    vertices, simplex = SHAPES[shape]
    reports = check_extreme_affinity(PolytopeStateSpace(vertices), midpoint_samples=0)
    np.testing.assert_allclose([r.affinity_defect for r in reports], AFFINITY_DEFECTS[shape],
                               rtol=0, atol=1e-12)
    assert all(r.passes for r in reports) == simplex


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
    vertices, _ = SHAPES[name]
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
@pytest.mark.parametrize("shape", list(SHAPES))
def test_stacked_lp_matches_per_point_lp(monkeypatch, shape, similar):
    rng = np.random.default_rng(41)
    verts = SHAPES[shape][0]
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
    poly = PolytopeStateSpace(similar_copy(SHAPES[shape][0], np.random.default_rng(7)))
    combos = _probe_combos(poly.n_vertices, midpoint_samples, 3)
    probes = combos @ poly.vertices
    calls = _counting_linprog(monkeypatch)
    reports = check_extreme_affinity(poly, midpoint_samples=midpoint_samples, seed=3)
    assert len(calls) == n_lps
    for r in reports:
        at_vertices = [e_omega_per_point(poly, r.omega_index, v) for v in poly.vertices]
        at_probes = [e_omega_per_point(poly, r.omega_index, zeta) for zeta in probes]
        np.testing.assert_allclose(r.values_at_vertices, at_vertices, rtol=0, atol=1e-12)
        defect = max(fit_residuals(poly.vertices, np.array(at_vertices)[:, None])[0],
                     np.max(np.abs(np.array(at_probes) - combos @ at_vertices)))
        assert r.affinity_defect == pytest.approx(defect, rel=0, abs=1e-12)


@pytest.mark.parametrize("shape,affinity_lps", [("triangle", 1), ("square", 1), ("cube", 1)])
def test_one_lp_per_stack(monkeypatch, shape, affinity_lps):
    poly = PolytopeStateSpace(SHAPES[shape][0])
    n = poly.n_vertices
    calls = _counting_linprog(monkeypatch)
    check_extreme_affinity(poly, midpoint_samples=8)
    # per extreme point, n - 1 rows for each vertex and random probe
    rows = (n - 1) * (n + 8)
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
                       "block 0 of 25 is unbounded"):
        check_extreme_affinity(poly)
    assert calls == ["e_omega"]


@pytest.mark.parametrize("failing,what", [
    (0, "hull LP failed: block 0 of 5"),
    (1, "LP for extreme points [0, 1, 2, 3, 4] failed: block 0 of 25")])
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
    # identity, with its feasibility tolerances at 1e-7 or at 1e-10.  The fit
    # residual is recomputed by lstsq from HiGHS's vertex values
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
    residuals = fit_residuals(poly.normalised, want)
    for r in reports:
        at_probes = [e_omega_per_point(reference, r.omega_index, zeta)
                     for zeta in combos @ poly.normalised]
        defect = max(residuals[r.omega_index],
                     np.max(np.abs(np.array(at_probes) - combos @ want[:, r.omega_index])))
        np.testing.assert_allclose(r.values_at_vertices, want[:, r.omega_index], rtol=0, atol=1e-12)
        assert r.affinity_defect == pytest.approx(defect, rel=0, abs=1e-12)
        assert r.passes == (defect <= Tolerance().check_tol
                            and np.delete(want[:, r.omega_index], r.omega_index).max() <= 1 - 1e-6)
    assert all(r.passes for r in reports) == (n == d + 1)


def _stretched_and_moved(points, rng, stretch, shift):
    """``points`` with their axes stretched by 10 ** uniform(-stretch, stretch),
    rotated and moved by shift * N(0, 1)."""
    d = points.shape[1]
    rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
    scales = 10.0 ** rng.uniform(-stretch, stretch, d)
    return (points * scales) @ rotation.T + shift * rng.normal(size=d)


@pytest.mark.parametrize("d,seed,stretch,shift", [
    (4, 61, 4.0, 1.0), (3, 56, 3.0, 1e6), (3, 62, 3.0, 1e6), (3, 114, 3.0, 1e6),
    (4, 17, 3.0, 1e6), (4, 20, 3.0, 1e6), (4, 28, 3.0, 1e6), (5, 3, 3.0, 1e6), (5, 5, 3.0, 1e6)])
def test_far_stretched_cubes_keep_their_answers(tmp_path, capsys, d, seed, stretch, shift):
    # cubes whose normalised vertices carry rounding up to 1e-8.  With pivots
    # down to 1e-9 the simplex met bases of condition 1e9 to 1e12, among
    # which it cycled or found one singular; and no step may leave a row
    # below 0 by more than rounding, neither one whose pivot is too small to
    # block nor one whose step length ties with that of a far smaller pivot.
    # Else a certificate fails and geom exits 3 on a polytope it accepted (the
    # 4-cube of seed 61 in its hull LP).  The cube's TP matrix is the
    # identity, and every extreme point fails
    from jordantp.cli import main

    cube = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    vertices = _stretched_and_moved(cube, np.random.default_rng(seed), stretch, shift)
    np.testing.assert_allclose(vertex_tp_matrix(PolytopeStateSpace(vertices)), np.eye(2 ** d),
                               rtol=0, atol=1e-6)
    path = tmp_path / "cube.csv"
    np.savetxt(path, vertices, delimiter=",", fmt="%.17g")
    assert main(["geom", str(path), "--midpoint-samples", "8", "--seed", str(seed)]) == 1
    assert not any(r["passes"] for r in json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("seed", range(16))
def test_random_simplices_pass(seed):
    # simplices in R^2 to R^5, every other one stretched by 1e-3 to 1e3 and
    # moved by 1e6.  The bound, stated before the run: any values at
    # n = d + 1 vertices fit, so the defect is the rounding of the fit and of
    # the probes' LPs on the whitened vertices, at most 16 n eps
    rng = np.random.default_rng(seed)
    d = 2 + seed % 4
    vertices = rng.normal(size=(d + 1, d))
    if seed % 2:
        vertices = _stretched_and_moved(vertices, rng, 3.0, 1e6)
    reports = check_extreme_affinity(PolytopeStateSpace(vertices), midpoint_samples=16, seed=seed)
    assert all(r.passes for r in reports)
    assert max(r.affinity_defect for r in reports) <= 16 * (d + 1) * np.finfo(float).eps


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


@pytest.mark.parametrize("scale", [1e-310, 1e-315, 1e-320])
@pytest.mark.parametrize("shape,code", [("triangle", 0), ("square", 1)])
def test_a_polytope_of_subnormal_spread_is_decided(tmp_path, capsys, scale, shape, code):
    # the map divided by the subnormal spread and overflowed, so geom exited
    # 3 on a polytope it had accepted; scaled by a power of two first, the
    # shape is decided as at unit scale
    from jordantp.cli import main

    verts = {"triangle": TRIANGLE, "square": SQUARE}[shape] * scale
    path = tmp_path / "tiny.csv"
    np.savetxt(path, verts, delimiter=",", fmt="%.17g")
    assert main(["geom", str(path)]) == code
    assert capsys.readouterr().err == ""
    poly = PolytopeStateSpace(verts)
    assert poly.contains(verts.mean(axis=0)) and not poly.contains(-verts[1])
    np.testing.assert_allclose(np.abs(poly.normalised).max(), 1.0, rtol=1e-3)


@pytest.mark.parametrize("name,code", [("triangle-1e308", 0), ("square-1e308", 1)])
def test_a_polytope_near_the_top_of_the_doubles_is_decided(tmp_path, capsys, name, code):
    # verts.mean(axis=0) overflowed, so geom warned and refused the distinct
    # vertices as coincident; each column scaled by a power of two first,
    # the mean is finite
    from jordantp.cli import main

    verts = load_module("tools/report_grid.py").EXTREME_SHAPES[name]
    path = tmp_path / "huge.csv"
    np.savetxt(path, verts, delimiter=",", fmt="%.17g")
    assert main(["geom", str(path)]) == code
    assert capsys.readouterr().err == ""
    np.testing.assert_allclose(np.abs(PolytopeStateSpace(verts).normalised).max(), 1.0,
                               rtol=1e-3)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_the_center_is_the_plain_mean_in_the_normal_range(shape):
    # the power-of-two scaling is exact, so it moves no bit of the mean
    rng = np.random.default_rng(5)
    for _ in range(8):
        verts = _stretched_and_moved(SHAPES[shape][0], rng, 3.0, 1e6)
        np.testing.assert_array_equal(PolytopeStateSpace(verts)._center, verts.mean(axis=0))


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


@pytest.mark.parametrize("shape,load", [("triangle", []), ("square", ["hull"]),
                                        ("cube", ["hull"])])
def test_load_and_contains_solve_one_lp_each(monkeypatch, shape, load):
    # a simplex loads with no LP: affinely independent vertices are extreme
    vertices = SHAPES[shape][0]
    calls = _counting_linprog(monkeypatch)
    poly = PolytopeStateSpace(vertices)
    assert calls == load
    calls.clear()
    assert poly.contains(vertices.mean(axis=0))
    assert calls == ["hull"]
    calls.clear()
    e_omega_value(poly, 0, vertices.mean(axis=0))
    assert calls == ["hull", "e_omega"]


@pytest.mark.parametrize("d", range(1, 7))
def test_simplices_load_with_no_lp_and_every_vertex_far_outside(monkeypatch, d):
    # rotated simplices with axes stretched by 1e-3 to 1e3 and moved by 1e6:
    # the normalised vertices form a regular simplex, each at L2 distance at
    # least sqrt(n / (n - 1)) > 1 from the hull of the others, so the hull
    # LP, run here by hand, finds every vertex extreme, as the load assumes
    rng = np.random.default_rng(d)
    calls = _counting_linprog(monkeypatch)
    for _ in range(16):
        vertices = _stretched_and_moved(rng.normal(size=(d + 1, d)), rng, 3.0, 1e6)
        poly = PolytopeStateSpace(vertices)
        assert calls == [] and poly.affinely_independent
        verts = poly.normalised
        distances = convexgeom._hull_distances(verts, verts[convexgeom._others(d + 1)])
        calls.clear()
        assert distances.min() >= 1.0 > convexgeom.HULL_CUTOFF


@pytest.mark.parametrize("vertices,independent", [(TRIANGLE, True), (SQUARE, False),
                                                  (np.vstack([np.zeros(4), np.eye(4)[:3]]), True)])
def test_one_affine_independence_verdict(monkeypatch, vertices, independent):
    # the load's verdict skips its hull LP and decides whether the induced
    # model exists; it agrees with the rank of the normalised edges
    calls = _counting_linprog(monkeypatch)
    poly = PolytopeStateSpace(vertices)
    diffs = poly.normalised[1:] - poly.normalised[0]
    assert poly.affinely_independent is independent
    assert bool(np.linalg.matrix_rank(diffs, tol=1e-9) == poly.n_vertices - 1) is independent
    assert calls == ([] if independent else ["hull"])
    # past the affinity check, which only simplices pass
    monkeypatch.setattr(convexgeom, "check_extreme_affinity", lambda poly, tol, samples: [])
    if independent:
        assert induced_affine_model(poly).polytope is poly
    else:
        with pytest.raises(ValueError, match="needs affinely independent vertices"):
            induced_affine_model(poly)


def _probe_combos(n, midpoint_samples, seed):
    """The convex weights of ``check_extreme_affinity``'s random probes, one
    row each."""
    rng = np.random.default_rng(seed)
    return np.array([rng.dirichlet(np.ones(n)) for _ in range(midpoint_samples)]).reshape(-1, n)


def fit_residuals(vertices, values):
    """Reference: the largest residual of each column of ``values`` (row i
    at vertex i) from its least-squares affine fit on ``vertices``, by
    lstsq on the vertices as given."""
    design = np.column_stack([np.ones(len(vertices)), vertices])
    coeffs = np.linalg.lstsq(design, values, rcond=None)[0]
    return np.abs(design @ coeffs - values).max(axis=0)


def affinity_defects_by_loop(poly, combos):
    """Reference: the defect of each omega, its fit residual maxed with its
    gap at each probe with the convex weights ``combos`` (one row each), one
    np.dot per probe."""
    verts = poly.normalised
    n = poly.n_vertices
    points = np.vstack([verts] + [verts.T @ lam for lam in combos])
    defects = []
    for w in range(n):
        values = convexgeom._e_omega_normalised_lp(poly, w, points)
        defect = float(fit_residuals(poly.vertices, values[:n, None])[0])
        for lam, value in zip(combos, values[n:]):
            defect = max(defect, abs(float(value) - float(np.dot(lam, values[:n]))))
        defects.append(defect)
    return defects


@pytest.mark.parametrize("shape", list(SHAPES))
def test_vectorised_defect_matches_loop(shape):
    # the probes are summed in another order, so values agree to rounding
    poly = PolytopeStateSpace(SHAPES[shape][0])
    reports = check_extreme_affinity(poly, midpoint_samples=12, seed=5)
    combos = _probe_combos(poly.n_vertices, 12, 5)
    np.testing.assert_allclose([r.affinity_defect for r in reports],
                               affinity_defects_by_loop(poly, combos), rtol=0, atol=1e-13)


# The triangle with its hypotenuse pushed out by EPS: a quadrilateral whose
# vertices have one affine dependency, l = (-2 EPS, 1/2 + EPS, 1/2 + EPS, -1)
# with sum_i l_i = 0 and sum_i l_i v_i = 0.  Each e_omega has l . e = +-2 EPS
# at the vertices, so its values are |l . e| / |l|^2 off their affine fit.
EPS = 1e-5
NEAR_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5 + EPS, 0.5 + EPS]])
NEAR_TRIANGLE_DEFECT = 2.0 * EPS / (1.5 + 2.0 * EPS + 6.0 * EPS ** 2)


def test_near_triangle_defect_is_its_fit_residual(monkeypatch):
    # one LP decides every omega, with no second pass.  The tolerance bounds
    # the fit residual, not the gaps elsewhere: at omega = 0 and 3 the
    # midpoint gaps reach 2 EPS / (1 + 2 EPS), half as much again
    poly = PolytopeStateSpace(NEAR_TRIANGLE)
    for w in (0, 3):
        assert np.abs(pairwise_midpoint_gaps(poly, w)).max() == pytest.approx(
            2.0 * EPS / (1.0 + 2.0 * EPS), rel=1e-9)
    calls = _counting_linprog(monkeypatch)
    reports = check_extreme_affinity(poly)
    assert len(calls) == 1
    np.testing.assert_allclose([r.affinity_defect for r in reports], NEAR_TRIANGLE_DEFECT,
                               rtol=1e-9, atol=0)
    assert not any(r.passes for r in reports)
    for check_tol, passes in ((0.99 * NEAR_TRIANGLE_DEFECT, False),
                              (1.01 * NEAR_TRIANGLE_DEFECT, True)):
        reports = check_extreme_affinity(poly, Tolerance(check_tol=check_tol))
        assert [r.passes for r in reports] == [passes] * 4


def test_probes_join_the_vertex_lp_and_the_defect(monkeypatch):
    # the random probes stack with the vertices in one LP; at vertices 1 and
    # 2 their gaps (1.76e-5) exceed the fit residual, at 0 and 3 they do not
    poly = PolytopeStateSpace(NEAR_TRIANGLE)
    rows = []
    _counting_linprog(monkeypatch, rows=rows)
    reports = check_extreme_affinity(poly, midpoint_samples=16, seed=4)
    assert rows == [4 * 3 * (4 + 16)]
    defects = [r.affinity_defect for r in reports]
    np.testing.assert_allclose(defects, affinity_defects_by_loop(poly, _probe_combos(4, 16, 4)),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(defects[::3], NEAR_TRIANGLE_DEFECT, rtol=1e-9, atol=0)
    assert min(defects[1:3]) > 1.3 * NEAR_TRIANGLE_DEFECT


@pytest.mark.parametrize("n,per_lp", [(12, 11), (32, 1)])
def test_stacks_keep_the_row_budget(monkeypatch, n, per_lp):
    # LP_STACK_ROWS bounds what one call holds: the regular n-gon's extreme
    # points go per_lp to an LP, each with n - 1 pairs per vertex query
    angles = 2.0 * np.pi * np.arange(n) / n
    poly = PolytopeStateSpace(np.column_stack([np.cos(angles), np.sin(angles)]))
    rows = []
    _counting_linprog(monkeypatch, rows=rows)
    reports = check_extreme_affinity(poly, midpoint_samples=0)
    one_omega = (n - 1) * n
    assert convexgeom.LP_STACK_ROWS // one_omega == per_lp
    assert rows == [one_omega * min(per_lp, n - i) for i in range(0, n, per_lp)]
    assert max(rows) <= convexgeom.LP_STACK_ROWS
    assert not any(r.passes for r in reports)


# A polytope in R^4 on which every pairwise midpoint of e_4 sits on the
# affine interpolant of its vertex values; the fit residual exposes it.
MIDPOINT_BLIND = np.vstack([np.eye(4), -0.25 * np.ones(4), 0.3 * np.ones(4)])


def test_the_fit_residual_catches_what_midpoints_miss():
    poly = PolytopeStateSpace(MIDPOINT_BLIND)
    assert np.abs(pairwise_midpoint_gaps(poly, 4)).max() <= 1e-12
    report = check_extreme_affinity(poly, midpoint_samples=0)[4]
    assert report.affinity_defect == pytest.approx(8.0 / 105.0, abs=1e-12)
    assert not report.passes


def test_geom_fails_the_midpoint_blind_polytope(tmp_path, capsys):
    from jordantp.cli import main

    path = tmp_path / "blind.csv"
    np.savetxt(path, MIDPOINT_BLIND, delimiter=",")
    assert main(["geom", str(path), "--midpoint-samples", "0"]) == 1
    report = json.loads(capsys.readouterr().out)[4]
    assert report["affinity_defect"] == pytest.approx(8.0 / 105.0, abs=1e-12)
    assert report["passes"] is False

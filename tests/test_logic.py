import numpy as np
import pytest
import scipy.linalg

from jordantp import (
    MeetThresholdWarning,
    Tolerance,
    atomic_decomposition,
    cone_contains,
    get_model,
    information_capacity_empirical,
    is_logic_element,
    is_orthogonal_family,
    join,
    logic_element,
    meet,
    order_norm,
    orthocomplement,
    random_element,
)
from conftest import random_projection
from jordantp.logic import meet_coords


def range_intersection_projection(model, p, q):
    """Oracle: projection onto range(p) & range(q) via the null space of the
    stacked complements, independent of the lattice code."""
    n = model.n
    stacked = np.vstack([np.eye(n) - model.to_matrix(p), np.eye(n) - model.to_matrix(q)])
    basis = scipy.linalg.null_space(stacked, rcond=1e-10)
    return basis @ basis.conj().T


def test_is_logic_element_examples(any_model):
    assert is_logic_element(any_model, any_model.order_unit())
    assert is_logic_element(any_model, any_model.zero())
    assert is_logic_element(any_model, random_element(any_model, 4, "logic"))


def test_is_logic_element_classical():
    m = get_model("classical", 3)
    assert is_logic_element(m, m.element([1.0, 0.0, 1.0]))
    assert not is_logic_element(m, m.element([0.5, 0.0, 1.0]))


def test_spin_atom_is_logic():
    m = get_model("spin", 2)
    u = np.array([0.6, 0.8])
    atom = m.atom(u)
    np.testing.assert_allclose(sorted(m.eigenvalues(atom)), [0.0, 1.0], atol=1e-12)
    assert is_logic_element(m, atom)


def test_orthocomplement_examples():
    m = get_model("classical", 3)
    np.testing.assert_array_equal(
        orthocomplement(m, m.element([1.0, 0.0, 1.0])).value.coords, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(
        orthocomplement(m, m.zero()).value.coords, m.order_unit().coords)
    h = get_model("herm", 2)
    eta = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    comp = orthocomplement(h, h.atom(eta)).value
    # rank-one projection onto the orthogonal line
    perp = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    np.testing.assert_allclose(h.to_matrix(comp), np.outer(perp, perp.conj()), atol=1e-12)


def test_orthocomplement_involution(any_model, tol):
    p = random_element(any_model, 5, "logic")
    twice = orthocomplement(any_model, orthocomplement(any_model, p, tol), tol)
    assert order_norm(any_model, twice.value - p) <= tol.check_tol


def test_orthocomplement_rejects_non_logic():
    m = get_model("classical", 2)
    with pytest.raises(ValueError):
        orthocomplement(m, m.element([0.3, 0.0]))


def test_orthogonal_family_examples():
    m = get_model("classical", 4)
    basis = [m.atom(i) for i in range(4)]
    assert is_orthogonal_family(m, basis)
    assert not is_orthogonal_family(m, [basis[0], basis[0]])


def test_orthogonal_family_herm_constructed():
    m = get_model("herm", 3)
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3))
                        + 1j * np.random.default_rng(3).normal(size=(3, 3)))
    atoms = [m.atom(q[:, 0]), m.atom(q[:, 1])]
    assert is_orthogonal_family(m, atoms)
    rng = np.random.default_rng(4)
    assert not is_orthogonal_family(m, atoms + [m.atom(m.random_atom_param(rng))])


def test_meet_idempotent_and_complement(any_model, tol):
    p = random_element(any_model, 21, "logic")
    got = meet(any_model, p, p, tol)
    assert order_norm(any_model, got.value - p) <= 1e-9
    comp = orthocomplement(any_model, p, tol)
    assert order_norm(any_model, meet(any_model, p, comp, tol).value) <= 1e-9


def test_join_examples(any_model, tol):
    p = random_element(any_model, 22, "logic")
    got = join(any_model, p, any_model.zero(), tol)
    assert order_norm(any_model, got.value - p) <= 1e-9


def test_join_of_orthogonal_atoms_is_sum():
    m = get_model("sym", 3)
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    e1, e2 = m.atom(q[:, 0]), m.atom(q[:, 1])
    got = join(m, e1, e2)
    assert order_norm(m, got.value - (e1 + e2)) <= 1e-9


@pytest.mark.parametrize("kind,n", [("sym", 4), ("herm", 3)])
def test_meet_join_match_range_oracle(kind, n):
    m = get_model(kind, n)
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = random_projection(m, int(rng.integers(1, n)), rng)
        q = random_projection(m, int(rng.integers(1, n)), rng)
        got = m.to_matrix(meet(m, p, q).value)
        np.testing.assert_allclose(got, range_intersection_projection(m, p, q), atol=1e-8)
        # join via the complement oracle
        want_join = np.eye(n) - range_intersection_projection(
            m, orthocomplement(m, p).value, orthocomplement(m, q).value)
        np.testing.assert_allclose(m.to_matrix(join(m, p, q).value), want_join, atol=1e-8)


def test_meet_bounds_and_join_bounds(any_model, tol):
    for seed in (31, 32, 33):
        p = random_element(any_model, seed, "logic")
        q = random_element(any_model, seed + 50, "logic")
        lo = meet(any_model, p, q, tol).value
        hi = join(any_model, p, q, tol).value
        for mid in (p, q):
            assert cone_contains(any_model, mid - lo, tol.replace(cone_slack=1e-8))
            assert cone_contains(any_model, hi - mid, tol.replace(cone_slack=1e-8))


def test_meet_threshold_diagnostic_warns():
    # two rank-one projections at an angle that parks an eigenvalue of p + q
    # inside the warning band around the selection threshold
    m = get_model("sym", 2)
    theta = np.sqrt(2.0e-7)
    p = m.from_matrix(np.outer([1.0, 0.0], [1.0, 0.0]))
    v = np.array([np.cos(theta), np.sin(theta)])
    q = m.from_matrix(np.outer(v, v))
    with pytest.warns(MeetThresholdWarning) as record:
        meet(m, p, q)
    assert [w.filename for w in record] == [__file__]  # names the caller of meet


def test_meet_coords_rows_are_the_meets_summed_in_frame_order(any_model, tol):
    # logic pairs p <= q of one frame and pairs of independent frames; each
    # row of the stacked selection is the meet of its pair, and the sum from
    # zeros in frame order of the atoms at the top eigenvalue, bit for bit
    rng = np.random.default_rng(11)
    pairs = []
    for seed in range(12):
        frame = np.array([any_model.atom_coords(prm) for prm in any_model.random_frame_params(rng)])
        in_q = rng.integers(0, 2, size=len(frame)).astype(bool)
        in_p = in_q & rng.integers(0, 2, size=len(frame)).astype(bool)
        pairs.append((any_model.element(frame[in_p].sum(axis=0)),
                      any_model.element(frame[in_q].sum(axis=0))))
        pairs.append((random_element(any_model, seed, "logic"),
                      random_element(any_model, seed + 100, "logic")))
    forms = [any_model.spectral_form(p + q, tol) for p, q in pairs]
    stacked = meet_coords(np.array([form.eigenvalues for form in forms]),
                          np.array([form.atom_coords for form in forms]), tol)
    threshold = 2.0 - 10.0 * tol.eig_cluster
    for row, form, (p, q) in zip(stacked, forms, pairs):
        want = sum(form.atom_coords[form.eigenvalues >= threshold], np.zeros(any_model.ambient_dim))
        assert row.tobytes() == want.tobytes()
        assert meet(any_model, p, q, tol).value.coords.tobytes() == want.tobytes()


def test_atomic_decomposition_examples():
    m = get_model("classical", 3)
    atoms = atomic_decomposition(m, m.order_unit())
    assert len(atoms) == 3
    total = sum(a.coords for a in atoms)
    np.testing.assert_allclose(total, np.ones(3))
    assert atomic_decomposition(m, m.zero()) == []


def test_atomic_decomposition_atom_is_itself(any_model, tol):
    rng = np.random.default_rng(6)
    e = any_model.atom(any_model.random_atom_param(rng))
    atoms = atomic_decomposition(any_model, e, tol)
    assert len(atoms) == 1
    assert order_norm(any_model, atoms[0] - e) <= 1e-9


def test_atomic_decomposition_rank2_projection():
    m = get_model("herm", 3)
    rng = np.random.default_rng(7)
    p = random_projection(m, 2, rng)
    atoms = atomic_decomposition(m, p)
    assert len(atoms) == 2
    total = sum(a.coords for a in atoms)
    np.testing.assert_allclose(total, p.coords, atol=1e-9)
    for atom in atoms:
        eigs = sorted(m.eigenvalues(atom), reverse=True)
        assert eigs[0] == pytest.approx(1.0, abs=1e-9)


def test_orthomodularity_sampled(any_model, tol):
    # p <= q built from a shared frame: q = p v (q ^ p')
    rng = np.random.default_rng(13)
    frame = [any_model.atom(prm) for prm in any_model.random_frame_params(rng)]
    q = any_model.zero()
    p = any_model.zero()
    for i, atom in enumerate(frame):
        if i % 2 == 0:
            q = q + atom
        if i == 0:
            p = p + atom
    rec = join(any_model, p, meet(any_model, q, orthocomplement(any_model, p, tol), tol), tol)
    assert order_norm(any_model, rec.value - q) <= 1e-8


def test_difference_identity(any_model, tol):
    # q <= p implies p - q = p ^ q'
    rng = np.random.default_rng(14)
    frame = [any_model.atom(prm) for prm in any_model.random_frame_params(rng)]
    p = any_model.zero()
    for atom in frame[: max(1, len(frame) // 2 + 1)]:
        p = p + atom
    q = frame[0]
    got = meet(any_model, p, orthocomplement(any_model, q, tol), tol)
    assert order_norm(any_model, got.value - (p - q)) <= 1e-8


def test_extreme_point_sum_and_difference_rules(any_model, tol):
    rng = np.random.default_rng(15)
    frame = [any_model.atom(prm) for prm in any_model.random_frame_params(rng)]
    e = frame[0]
    q = any_model.zero()
    for atom in frame[1:]:
        q = q + atom
    assert is_logic_element(any_model, q + e, tol)          # q + e <= unit
    assert is_logic_element(any_model, (q + e) - e, tol)    # removing e again


def test_logic_closed_under_complement(any_model, tol):
    p = random_element(any_model, 16, "logic")
    assert is_logic_element(any_model, any_model.order_unit() - p, tol)


@pytest.mark.parametrize("spec,expected", [
    (("classical", 5, None), 5),
    (("spin", 7, None), 2),
    (("sym", 4, None), 4),
    (("herm", 3, None), 3),
    (("lpq", 2, 3.0), 2),
    (("lpq", 4, 1.5), 2),
])
def test_information_capacity(spec, expected):
    kind, n, p = spec
    model = get_model(kind, n, p)
    assert model.info_capacity == expected
    assert information_capacity_empirical(model, 0, 6) == expected


def test_logic_element_wrapper_validates():
    m = get_model("classical", 2)
    wrapped = logic_element(m, m.element([1.0, 0.0]))
    assert logic_element(m, wrapped) is wrapped
    with pytest.raises(ValueError):
        logic_element(m, m.element([0.25, 0.0]))


def test_iterated_join_of_orthogonal_family_is_sum():
    # orthogonal logic elements: the lattice join coincides with the sum
    m = get_model("herm", 4)
    rng = np.random.default_rng(19)
    frame = [m.atom(prm) for prm in m.random_frame_params(rng)]
    parts = [frame[0] + frame[1], frame[2], frame[3]]
    joined = parts[0]
    for part in parts[1:]:
        joined = join(m, joined, part).value
    total = m.zero()
    for part in parts:
        total = total + part
    assert order_norm(m, joined - total) <= 1e-8

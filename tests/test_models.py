import numpy as np
import pytest

from conftest import random_projection
from jordantp import (
    NotAtomError,
    UnnormalizedParamError,
    atom_from_param,
    func_calculus,
    get_model,
    jordan_product_polarized,
    linearity_defect,
    order_norm,
    random_element,
    spectral_decompose,
    square,
    transition_prob,
)

# lpq(2, p=4) additivity defect of the polarized product, seed 42, 100 trials;
# frozen as a regression baseline for the nonlinearity diagnostic
LPQ4_LINEARITY_BASELINE = 0.5048018407634511


def test_decompose_classical_coordinates():
    m = get_model("classical", 2)
    form = spectral_decompose(m, m.element([3.0, -1.0]))
    np.testing.assert_array_equal(form.eigenvalues, [3.0, -1.0])
    np.testing.assert_array_equal(form.pairs[0].atom.coords, [1.0, 0.0])
    np.testing.assert_array_equal(form.pairs[1].atom.coords, [0.0, 1.0])


def test_decompose_spin_closed_form():
    m = get_model("spin", 2)
    form = spectral_decompose(m, m.element([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(form.eigenvalues, [2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(form.pairs[0].atom.coords, [0.5, 0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(form.pairs[1].atom.coords, [0.5, -0.5, 0.0], atol=1e-14)


def test_decompose_sym_standard():
    m = get_model("sym", 2)
    form = spectral_decompose(m, m.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(form.eigenvalues, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(m.to_matrix(form.pairs[0].atom), 0.5 * np.ones((2, 2)), atol=1e-12)
    np.testing.assert_allclose(m.to_matrix(form.pairs[1].atom),
                               0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_decompose_is_deterministic(any_model):
    a = random_element(any_model, 9)
    f1 = spectral_decompose(any_model, a)
    f2 = spectral_decompose(any_model, a)
    for p1, p2 in zip(f1.pairs, f2.pairs):
        assert p1.eigenvalue == p2.eigenvalue
        np.testing.assert_array_equal(p1.atom.coords, p2.atom.coords)


def test_degenerate_frame_is_deterministic_and_valid():
    # multiplicity-2 eigenspace: frame must still resolve the unit exactly
    m = get_model("sym", 3)
    a = m.from_matrix(np.diag([2.0, 2.0, -1.0]))
    form = spectral_decompose(m, a)
    np.testing.assert_allclose(form.eigenvalues, [2.0, 2.0, -1.0], atol=1e-12)
    total = sum(p.atom.coords for p in form.pairs)
    np.testing.assert_allclose(total, m.order_unit().coords, atol=1e-12)
    np.testing.assert_allclose(form.reconstruct().coords, a.coords, atol=1e-12)


def test_reconstruction_and_frame_invariants(any_model, tol):
    unit = any_model.order_unit()
    for seed in range(50):
        a = random_element(any_model, seed)
        form = spectral_decompose(any_model, a, tol)
        assert len(form.pairs) <= any_model.info_capacity
        assert order_norm(any_model, form.reconstruct() - a) <= 1e-9
        total = any_model.zero()
        for atom in form.atoms:
            total = total + atom
        assert order_norm(any_model, total - unit) <= 1e-9
        eigs = form.eigenvalues
        assert np.all(np.diff(eigs) <= 1e-12)
        # every frame atom really is an atom
        for atom in form.atoms:
            np.testing.assert_allclose(
                sorted(np.round(any_model.eigenvalues(atom))),
                [0.0] * (len(form.pairs) - 1) + [1.0], atol=1e-12)


def test_frame_atoms_pairwise_orthogonal(any_model, tol):
    for seed in range(10):
        form = spectral_decompose(any_model, random_element(any_model, seed), tol)
        params = [any_model.atom_param_from_coords(p.atom.coords, tol) for p in form.pairs]
        for i in range(len(params)):
            for j in range(len(params)):
                if i != j:
                    assert abs(any_model.transition_from_params(params[i], params[j])) <= 1e-9


def test_atom_from_param_herm_projection():
    m = get_model("herm", 2)
    atom = atom_from_param(m, np.array([1.0, 0.0]))
    np.testing.assert_allclose(m.to_matrix(atom), np.diag([1.0, 0.0]).astype(complex))


def test_atom_from_param_lpq_euclidean_identity():
    # p = 2: the ball duality map is the identity
    m = get_model("lpq", 2, 2.0)
    atom = atom_from_param(m, np.array([1.0, 0.0]))
    np.testing.assert_allclose(atom.coords, [0.5, 0.5, 0.0], atol=1e-14)


def test_atom_from_param_lpq_p3_supporting_functional():
    # omega = 2^(-1/3) (1,1): f_i = |omega_i|^(p-1) = 2^(-2/3), already dual-norm one
    m = get_model("lpq", 2, 3.0)
    omega = 2.0 ** (-1.0 / 3.0) * np.ones(2)
    atom = atom_from_param(m, omega)
    f = 2.0 * atom.coords[1:]
    np.testing.assert_allclose(f, 2.0 ** (-2.0 / 3.0) * np.ones(2), atol=1e-12)
    assert np.dot(f, omega) == pytest.approx(1.0, abs=1e-12)


def test_atom_eigenvalues_are_one_and_zero(any_model):
    rng = np.random.default_rng(3)
    atom = any_model.atom(any_model.random_atom_param(rng))
    eigs = sorted(any_model.eigenvalues(atom), reverse=True)
    assert eigs[0] == pytest.approx(1.0, abs=1e-9)
    assert max(abs(e) for e in eigs[1:]) <= 1e-9


def test_atom_param_rejects_unnormalized():
    with pytest.raises(UnnormalizedParamError):
        atom_from_param(get_model("sym", 3), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(UnnormalizedParamError):
        atom_from_param(get_model("lpq", 2, 3.0), np.array([1.0, 1.0]))
    with pytest.raises(UnnormalizedParamError):
        atom_from_param(get_model("spin", 2), np.array([0.5, 0.0]))


def test_non_atom_rejected(any_model):
    with pytest.raises(NotAtomError):
        transition_prob(any_model, any_model.order_unit(), any_model.order_unit())


def test_random_element_contracts(any_model):
    a1 = random_element(any_model, 1, "positive")
    a2 = random_element(any_model, 1, "positive")
    np.testing.assert_array_equal(a1.coords, a2.coords)
    assert any_model.eigenvalues(a1).min() >= -1e-12
    logic = random_element(any_model, 5, "logic")
    eigs = any_model.eigenvalues(logic)
    assert np.all(np.abs(eigs - np.round(eigs)) <= 1e-9)
    interval = random_element(any_model, 6, "unit_interval")
    eigs = any_model.eigenvalues(interval)
    assert eigs.min() >= -1e-12 and eigs.max() <= 1.0 + 1e-12


def test_random_positive_classical_nonnegative_coords():
    a = random_element(get_model("classical", 3), 1, "positive")
    assert np.all(a.coords >= 0)


def test_func_calculus_examples():
    cl = get_model("classical", 2)
    sq = func_calculus(cl, cl.element([2.0, -1.0]), lambda s: s * s)
    np.testing.assert_allclose(sq.coords, [4.0, 1.0], atol=1e-14)
    sp = get_model("spin", 2)
    # (1,(1,0)): eigenvalues 2, 0 -> squares 4, 0 -> resummed (2,(2,0))
    sq = square(sp, sp.element([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(sq.coords, [2.0, 2.0, 0.0], atol=1e-12)


def test_func_calculus_identity(any_model, tol):
    a = random_element(any_model, 11)
    out = func_calculus(any_model, a, lambda s: s)
    assert order_norm(any_model, out - a) <= tol.check_tol


def test_func_calculus_rejects_non_finite():
    m = get_model("classical", 2)
    with pytest.raises(ValueError):
        func_calculus(m, m.element([1.0, -1.0]), lambda s: 1.0 / (s - 1.0))


def test_jordan_product_classical_componentwise():
    m = get_model("classical", 2)
    prod = jordan_product_polarized(m, m.element([1.0, 2.0]), m.element([3.0, 4.0]))
    np.testing.assert_allclose(prod.coords, [3.0, 8.0], atol=1e-12)


def test_jordan_product_matches_anticommutator():
    m = get_model("herm", 2)
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = 0.5 * (a + a.conj().T)
        b = 0.5 * (b + b.conj().T)
        prod = jordan_product_polarized(m, m.from_matrix(a), m.from_matrix(b))
        np.testing.assert_allclose(m.to_matrix(prod), 0.5 * (a @ b + b @ a), atol=1e-9)


def test_unit_acts_neutrally(any_model, tol):
    a = random_element(any_model, 2)
    prod = jordan_product_polarized(any_model, a, any_model.order_unit())
    assert order_norm(any_model, prod - a) <= 1e-9


def test_linearity_defect_jordan_backends():
    assert linearity_defect(get_model("herm", 3), 0, 30) <= 1e-8
    assert linearity_defect(get_model("classical", 4), 0, 30) <= 1e-8
    assert linearity_defect(get_model("spin", 3), 0, 30) <= 1e-8
    assert linearity_defect(get_model("sym", 3), 0, 30) <= 1e-8


def test_linearity_defect_lpq_p4_regression():
    defect = linearity_defect(get_model("lpq", 2, 4.0), 42, 100)
    assert defect > 1e-3
    assert defect == pytest.approx(LPQ4_LINEARITY_BASELINE, rel=1e-9)


def test_lpq_p2_matches_spin_factor():
    # canonical identification (c, f) <-> (t, x); transition probabilities agree
    lq = get_model("lpq", 3, 2.0)
    sp = get_model("spin", 3)
    rng = np.random.default_rng(8)
    for _ in range(25):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        tp_l = lq.transition_from_params(u, v)
        tp_s = sp.transition_from_params(u, v)
        assert tp_l == pytest.approx(tp_s, abs=1e-9)
        np.testing.assert_allclose(lq.atom(u).coords, sp.atom(u).coords, atol=1e-12)


def test_lpq_rejects_bad_exponents():
    for bad in (1.0, 0.5, np.inf):
        with pytest.raises(ValueError):
            get_model("lpq", 2, bad)


def test_herm_coords_round_trip():
    m = get_model("herm", 3)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.5 * (a + a.conj().T)
    np.testing.assert_allclose(m.to_matrix(m.from_matrix(a)), a, atol=1e-15)
    # layout: diagonal first, then (re, im) of the strict upper triangle row-major
    coords = m.from_matrix(a).coords
    np.testing.assert_allclose(coords[:3], np.real(np.diag(a)))
    np.testing.assert_allclose(coords[3:5], [a[0, 1].real, a[0, 1].imag])
    np.testing.assert_allclose(coords[5:7], [a[0, 2].real, a[0, 2].imag])
    np.testing.assert_allclose(coords[7:9], [a[1, 2].real, a[1, 2].imag])


def test_model_descriptor_contents(any_model):
    desc = any_model.descriptor
    assert desc.info_capacity <= desc.ambient_dim
    if desc.symmetric_tp:
        assert desc.has_inner_product
    echo = desc.to_json()
    assert echo["kind"] == any_model.kind
    assert echo["n"] >= 1


def test_descriptor_rejects_inconsistency():
    from jordantp import ModelDescriptor
    with pytest.raises(ValueError):
        ModelDescriptor("classical", (("n", 2),), ambient_dim=2, info_capacity=3,
                        symmetric_tp=True, has_inner_product=True)
    with pytest.raises(ValueError):
        ModelDescriptor("lpq", (("n", 2), ("p", 3.0)), ambient_dim=3, info_capacity=2,
                        symmetric_tp=True, has_inner_product=False)


def test_lpq_one_dimensional_ball_is_symmetric():
    # the interval [-1, 1] is the same model for every exponent
    m = get_model("lpq", 1, 3.0)
    assert m.symmetric_tp and m.has_inner_product
    from jordantp import symmetry_defect
    assert symmetry_defect(m, 0, 50) <= 1e-12
    sp = get_model("lpq", 1, 7.5)
    e_plus = sp.atom(np.array([1.0]))
    e_minus = sp.atom(np.array([-1.0]))
    np.testing.assert_allclose((e_plus + e_minus).coords, sp.order_unit().coords, atol=1e-15)


# ---------------------------------------------------------------------------
# matrix spectral kernel: eigenvalue-only path and stacked rank-one frame
# ---------------------------------------------------------------------------

MATRIX_KERNEL_SPECS = [("sym", 2), ("sym", 3), ("sym", 4), ("herm", 2), ("herm", 3)]


def _kernel_elements(model, rng):
    """Random, logic-shaped (eigenvalues 0 and 1), repeated-eigenvalue and
    1e+-100-scaled elements, by label."""
    n = model.n
    unit = model.order_unit()
    random = random_element(model, int(rng.integers(1 << 30)))
    out = {"random": random, "zero": model.zero(), "unit": unit}
    for rank in range(1, n):
        out[f"logic{rank}"] = random_projection(model, rank, rng)
    # spectra (2, ..., 2, -1) and (3, -0.5, ..., -0.5)
    out["repeated"] = 3.0 * random_projection(model, n - 1, rng) - unit
    out["repeated_low"] = 3.5 * random_projection(model, 1, rng) - 0.5 * unit
    for scale in (1e100, 1e-100):
        out[f"random*{scale:g}"] = random * scale
        out[f"repeated*{scale:g}"] = out["repeated"] * scale
    return out


def _reference_frame(model, coords, tol):
    """The frame as the kernel built it one cluster and one atom at a time,
    every cluster, rank one included, through _deterministic_basis."""
    from jordantp.backends.base import cluster_descending
    from jordantp.backends.matrices import _deterministic_basis

    eigvals, eigvecs = np.linalg.eigh(model.to_matrix(coords))
    order = np.argsort(-eigvals, kind="stable")
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    out = []
    for cl in cluster_descending(eigvals, tol.eig_cluster):
        basis = eigvecs[:, cl]
        rank = cl.stop - cl.start
        for v in _deterministic_basis(basis @ basis.conj().T, rank):
            out.append((float(np.mean(eigvals[cl])), rank,
                        model.matrix_coords(np.outer(v, v.conj()))))
    return out


@pytest.mark.parametrize("kind,n", MATRIX_KERNEL_SPECS)
def test_matrix_kernel_paths_agree(kind, n, tol):
    model = get_model(kind, n)
    unit = model.order_unit_coords()
    rng = np.random.default_rng(2312 + 10 * n + len(kind))
    for label, a in _kernel_elements(model, rng).items():
        frame = model.decompose_coords(a.coords, tol)
        eigs = np.array([s for s, _ in frame])
        # tolerance-0 contract between the two kernel entry points
        np.testing.assert_array_equal(model.eigenvalues(a, tol), eigs, err_msg=label)
        np.testing.assert_array_equal(model.eigenvalues_coords(a.coords, tol), eigs,
                                      err_msg=label)
        reference = _reference_frame(model, a.coords, tol)
        np.testing.assert_array_equal(eigs, [s for s, _, _ in reference], err_msg=label)
        for (_, atom), (_, rank, ref_atom) in zip(frame, reference):
            if rank > 1:  # a degenerate cluster keeps its deterministic atoms
                np.testing.assert_array_equal(atom, ref_atom, err_msg=label)
            else:
                np.testing.assert_allclose(atom, ref_atom, rtol=0, atol=1e-14, err_msg=label)
        np.testing.assert_allclose(sum(atom for _, atom in frame), unit, rtol=0, atol=1e-13,
                                   err_msg=label)


CLOSED_FORM_KERNEL_SPECS = [("classical", 1, None), ("classical", 4, None), ("spin", 1, None),
                            ("spin", 3, None), ("lpq", 2, 2.0), ("lpq", 2, 3.0), ("lpq", 3, 1.5)]


@pytest.mark.parametrize("kind,n,p", CLOSED_FORM_KERNEL_SPECS)
def test_closed_form_kernel_paths_agree(kind, n, p, tol):
    from jordantp.backends.base import Model

    model = get_model(kind, n, p)
    assert type(model).eigenvalues_coords is not Model.eigenvalues_coords
    random = random_element(model, 2312 + n)
    elements = {"random": random, "zero": model.zero(), "unit": model.order_unit(),
                "ties": model.element(np.resize([1.0, -2.0, 1.0, -0.0], model.ambient_dim)),
                "random*1e100": random * 1e100, "random*1e-100": random * 1e-100}
    for label, a in elements.items():
        eigs = np.array([s for s, _ in model.decompose_coords(a.coords, tol)])
        np.testing.assert_array_equal(model.eigenvalues(a, tol), eigs, err_msg=label)
        np.testing.assert_array_equal(model.eigenvalues_coords(a.coords, tol), eigs,
                                      err_msg=label)


def test_matrix_coords_maps_a_stack():
    for kind, n in MATRIX_KERNEL_SPECS:
        model = get_model(kind, n)
        mats = np.stack([model.to_matrix(random_element(model, k)) for k in range(6)])
        stacked = model.matrix_coords(mats.reshape(2, 3, n, n))
        assert stacked.shape == (2, 3, model.ambient_dim)
        for k, mat in enumerate(mats):
            np.testing.assert_array_equal(stacked[k // 3, k % 3], model.matrix_coords(mat))

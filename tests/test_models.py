import warnings

import numpy as np
import pytest

from conftest import ALL_MODEL_SPECS, random_projection
from jordantp import (
    DimensionMismatchError,
    Tolerance,
    NotAtomError,
    UnnormalizedParamError,
    UnsupportedModelError,
    func_calculus,
    get_model,
    jordan_product_polarized,
    linearity_defect,
    order_norm,
    random_element,
    square,
    transition_prob,
)

# lpq(2, p=4) additivity defect of the polarized product, seed 42, 100 trials,
# a, b and c each the first draw of its own trial stream; frozen as a
# regression baseline for the nonlinearity diagnostic
LPQ4_LINEARITY_BASELINE = 0.3481454362488335


@pytest.mark.parametrize("kind,n,p", [("classical", 3, None), ("spin", 2, None), ("sym", 3, None),
                                       ("herm", 2, None), ("lpq", 2, 3.0)])
def test_a_coordinate_vector_of_the_wrong_shape_is_refused(kind, n, p):
    # the raw-array entry points check the shape as an element does
    model = get_model(kind, n, p)
    d = model.ambient_dim
    param = model.random_atom_param(np.random.default_rng(0))
    for coords in (np.ones(d - 1), np.ones(d + 1), np.ones((1, d))):
        with pytest.raises(DimensionMismatchError, match=f"expected {d} coordinates"):
            model.eigenvalues(coords)
        with pytest.raises(DimensionMismatchError, match=f"expected {d} coordinates"):
            model.cone_defect(coords)
        with pytest.raises(DimensionMismatchError, match=f"expected {d} coordinates"):
            model.state_value(param, coords)


@pytest.mark.parametrize("spec,other", [(("spin", 3, None), ("classical", 4, None)),
                                        (("spin", 2, None), ("sym", 2, None)),
                                        (("herm", 2, None), ("classical", 4, None))])
def test_an_element_of_another_model_is_refused(spec, other):
    # the two models share the ambient dimension, so only the element's
    # model tells its coordinates apart
    for model, foreign in ((get_model(*spec), get_model(*other)),
                           (get_model(*other), get_model(*spec))):
        a = foreign.element(np.arange(1.0, model.ambient_dim + 1))
        param = model.random_atom_param(np.random.default_rng(0))
        for call in (model.eigenvalues, model.cone_defect, lambda x: model.state_value(param, x)):
            with pytest.raises(DimensionMismatchError, match="element belongs to"):
                call(a)


@pytest.mark.parametrize("spec,other", [(("sym", 3, None), ("classical", 6, None)),
                                        (("sym", 3, None), ("spin", 5, None)),
                                        (("herm", 2, None), ("classical", 4, None))])
def test_to_matrix_refuses_an_element_of_another_model(spec, other):
    model, foreign = get_model(*spec), get_model(*other)
    with pytest.raises(DimensionMismatchError, match="element belongs to"):
        model.to_matrix(foreign.order_unit())
    model.to_matrix(foreign.order_unit().coords)  # coordinates are this model's


def test_decompose_classical_coordinates():
    m = get_model("classical", 2)
    form = m.spectral_form(m.element([3.0, -1.0]))
    np.testing.assert_array_equal(form.eigenvalues, [3.0, -1.0])
    np.testing.assert_array_equal(form.pairs[0].atom.coords, [1.0, 0.0])
    np.testing.assert_array_equal(form.pairs[1].atom.coords, [0.0, 1.0])


def test_decompose_spin_closed_form():
    m = get_model("spin", 2)
    form = m.spectral_form(m.element([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(form.eigenvalues, [2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(form.pairs[0].atom.coords, [0.5, 0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(form.pairs[1].atom.coords, [0.5, -0.5, 0.0], atol=1e-14)


def test_decompose_sym_standard():
    m = get_model("sym", 2)
    form = m.spectral_form(m.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(form.eigenvalues, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(m.to_matrix(form.pairs[0].atom), 0.5 * np.ones((2, 2)), atol=1e-12)
    np.testing.assert_allclose(m.to_matrix(form.pairs[1].atom),
                               0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_decompose_is_deterministic(any_model):
    a = random_element(any_model, 9)
    f1 = any_model.spectral_form(a)
    f2 = any_model.spectral_form(a)
    for p1, p2 in zip(f1.pairs, f2.pairs):
        assert p1.eigenvalue == p2.eigenvalue
        np.testing.assert_array_equal(p1.atom.coords, p2.atom.coords)


def test_spectral_form_holds_the_kernel_rows_read_only(any_model, tol):
    a = random_element(any_model, 11)
    values, atoms = any_model.decompose_coords(a.coords, tol)
    form = any_model.spectral_form(a, tol)
    for stored, row in ((form.eigenvalues, values), (form.atom_coords, atoms)):
        assert _same(stored, row) and not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 0.0
    # the elements are built once, when first read, and match the rows
    assert form.pairs is form.pairs and form.atoms is form.atoms
    assert len(form.pairs) == len(values)
    for pair, s, atom, element in zip(form.pairs, values.tolist(), atoms, form.atoms):
        assert type(pair.eigenvalue) is float and pair.eigenvalue == s
        assert pair.atom is element and element.model is any_model
        assert _same(element.coords, atom)


def test_degenerate_frame_is_deterministic_and_valid():
    # multiplicity-2 eigenspace: frame must still resolve the unit exactly
    m = get_model("sym", 3)
    a = m.from_matrix(np.diag([2.0, 2.0, -1.0]))
    form = m.spectral_form(a)
    np.testing.assert_allclose(form.eigenvalues, [2.0, 2.0, -1.0], atol=1e-12)
    total = sum(p.atom.coords for p in form.pairs)
    np.testing.assert_allclose(total, m.order_unit().coords, atol=1e-12)
    np.testing.assert_allclose(form.reconstruct().coords, a.coords, atol=1e-12)


def test_reconstruction_and_frame_invariants(any_model, tol):
    unit = any_model.order_unit()
    for seed in range(50):
        a = random_element(any_model, seed)
        form = any_model.spectral_form(a, tol)
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
        form = any_model.spectral_form(random_element(any_model, seed), tol)
        params = [any_model.atom_param_from_coords(p.atom.coords) for p in form.pairs]
        for i in range(len(params)):
            for j in range(len(params)):
                if i != j:
                    assert abs(any_model.transition_from_params(params[i], params[j])) <= 1e-9


def test_atom_from_param_herm_projection():
    m = get_model("herm", 2)
    atom = m.atom(np.array([1.0, 0.0]))
    np.testing.assert_allclose(m.to_matrix(atom), np.diag([1.0, 0.0]).astype(complex))


def test_atom_from_param_lpq_euclidean_identity():
    # p = 2: the ball duality map is the identity
    m = get_model("lpq", 2, 2.0)
    atom = m.atom(np.array([1.0, 0.0]))
    np.testing.assert_allclose(atom.coords, [0.5, 0.5, 0.0], atol=1e-14)


def test_atom_from_param_lpq_p3_supporting_functional():
    # omega = 2^(-1/3) (1,1): f_i = |omega_i|^(p-1) = 2^(-2/3), already dual-norm one
    m = get_model("lpq", 2, 3.0)
    omega = 2.0 ** (-1.0 / 3.0) * np.ones(2)
    atom = m.atom(omega)
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
    for m in (get_model("sym", 3), get_model("herm", 3)):
        # not unit, wrong dimension, zero; atoms and states check alike
        for bad in (np.array([1.0, 1.0, 0.0]), np.full(4, 0.5), np.zeros(3)):
            with pytest.raises(UnnormalizedParamError):
                m.atom(bad)
            with pytest.raises(UnnormalizedParamError):
                m.state_value(bad, m.order_unit_coords())
    with pytest.raises(UnnormalizedParamError):
        get_model("lpq", 2, 3.0).atom(np.array([1.0, 1.0]))
    with pytest.raises(UnnormalizedParamError):
        get_model("spin", 2).atom(np.array([0.5, 0.0]))


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
    assert any_model.info_capacity <= any_model.ambient_dim
    echo = any_model.descriptor.to_json()
    assert echo["kind"] == any_model.kind
    assert echo["n"] >= 1


def test_lpq_one_dimensional_ball_is_symmetric():
    # the interval [-1, 1] is the same model for every exponent
    m = get_model("lpq", 1, 3.0)
    assert m.symmetric_tp
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


def _frozen_clusters(eigenvalues, eig_cluster):
    """The clusters of a descending eigenvalue vector, as slices: a frozen
    copy of the kernel's rule, so that the reference shares no code with it.
    A new cluster starts where a halved gap exceeds eig_cluster times the
    halved spectral diameter."""
    half = (0.5 * np.asarray(eigenvalues, dtype=float)).tolist()
    threshold = eig_cluster * float(half[0] - half[-1])
    slices = []
    start = 0
    for k in range(1, len(half)):
        if half[k - 1] - half[k] > threshold:
            slices.append(slice(start, k))
            start = k
    slices.append(slice(start, len(half)))
    return slices


def _frozen_basis(projector, rank):
    """Orthonormal basis of a projector's range, one vector at a time: a
    frozen copy of the kernel's rule.  Columns are orthogonalized in index
    order, twice, a column of norm at most 1e-6 is skipped, and each kept
    vector is phase-fixed so that its first significant component is real
    positive."""
    vecs = []
    for i in range(projector.shape[0]):
        if len(vecs) == rank:
            break
        w = projector[:, i].copy()
        for _ in range(2):
            for v in vecs:
                w = w - v * np.vdot(v, w)
        norm = np.linalg.norm(w)
        if norm <= 1e-6:
            continue
        w = w / norm
        j = int(np.argmax(np.abs(w) > 1e-8))
        vecs.append(w / (w[j] / abs(w[j])))
    assert len(vecs) == rank
    return vecs


def _reference_frame(model, coords, tol):
    """The frame built one cluster and one atom at a time, every cluster,
    rank one included, through the frozen basis rule above."""
    eigvals, eigvecs = np.linalg.eigh(model.to_matrix(coords))
    order = np.argsort(-eigvals, kind="stable")
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    out = []
    for cl in _frozen_clusters(eigvals, tol.eig_cluster):
        basis = eigvecs[:, cl]
        rank = cl.stop - cl.start
        # a cluster's mean is that of the halves, doubled, which rounds
        # otherwise where the eigenvalues are subnormal
        mean = float(2.0 * np.mean(0.5 * eigvals[cl]) if rank > 1 else eigvals[cl.start])
        for v in _frozen_basis(basis @ basis.conj().T, rank):
            out.append((mean, rank, model.matrix_coords(np.outer(v, v.conj()))))
    return out


@pytest.mark.parametrize("kind,n", MATRIX_KERNEL_SPECS)
def test_matrix_kernel_paths_agree(kind, n, tol):
    model = get_model(kind, n)
    unit = model.order_unit_coords()
    rng = np.random.default_rng(2312 + 10 * n + len(kind))
    for label, a in _kernel_elements(model, rng).items():
        eigs, atoms = model.decompose_coords(a.coords, tol)
        # tolerance-0 contract between the two kernel entry points
        np.testing.assert_array_equal(model.eigenvalues(a, tol), eigs, err_msg=label)
        np.testing.assert_array_equal(model.eigenvalues_coords(a.coords, tol), eigs,
                                      err_msg=label)
        reference = _reference_frame(model, a.coords, tol)
        np.testing.assert_array_equal(eigs, [s for s, _, _ in reference], err_msg=label)
        for atom, (_, rank, ref_atom) in zip(atoms, reference):
            if rank > 1:  # a degenerate cluster keeps its deterministic atoms
                np.testing.assert_array_equal(atom, ref_atom, err_msg=label)
            else:
                np.testing.assert_allclose(atom, ref_atom, rtol=0, atol=1e-14, err_msg=label)
        np.testing.assert_allclose(sum(atoms), unit, rtol=0, atol=1e-13,
                                   err_msg=label)


def _assert_same_bits(actual, desired, label):
    np.testing.assert_array_equal(actual, desired, err_msg=label)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(desired), err_msg=label)


def _with_spectrum(model, spectrum, rng):
    """The element with the given eigenvalues in a random frame."""
    gauss = rng.normal(size=(model.n, model.n))
    if model.kind == "herm":
        gauss = gauss + 1j * rng.normal(size=(model.n, model.n))
    q = np.linalg.qr(gauss)[0]
    return model.matrix_coords((q * spectrum) @ q.conj().T)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind,n", MATRIX_KERNEL_SPECS)
def test_a_mixed_stack_gives_every_row_its_own_frame(kind, n, tol):
    # rows of different cluster patterns share one stack, so each cluster
    # rank is resolved over rows that differ in everything else
    model = get_model(kind, n)
    rng = np.random.default_rng(4112 + 10 * n + len(kind))
    rows = {label: a.coords for label, a in _kernel_elements(model, rng).items()}
    for label, spectrum in (("1100", [1.0] * (n // 2) + [0.0] * (n - n // 2)),
                            ("222-1", [2.0] * (n - 1) + [-1.0]),
                            ("3-.5", [3.0] + [-0.5] * (n - 1))):
        rows[label] = _with_spectrum(model, np.array(spectrum), rng)
        for scale in (1e300, 1e-300):
            rows[f"{label}*{scale:g}"] = rows[label] * scale
    rows["-zero"] = -0.0 * rows["zero"]
    # its degenerate eigenspaces have zero projector columns, which are skipped
    rows["axes"] = model.matrix_coords(np.diag([0.0] + [1.0] * (n - 1)))
    labels = list(rows)
    stack = np.array([rows[label] for label in labels])
    values, atoms = model.decompose_batch(stack, tol)
    _assert_same_bits(model.eigenvalues_batch(stack, tol), values, "eigenvalues_batch")
    for k, label in enumerate(labels):
        one_values, one_atoms = model.decompose_coords(stack[k], tol)
        _assert_same_bits(values[k], one_values, label)
        _assert_same_bits(atoms[k], one_atoms, label)
        reference = _reference_frame(model, stack[k], tol)
        _assert_same_bits(values[k], [s for s, _, _ in reference], label)
        for atom, (_, rank, ref_atom) in zip(atoms[k], reference):
            if rank > 1:  # a degenerate cluster takes the frozen basis rule's atoms
                _assert_same_bits(atom, ref_atom, label)


CLOSED_FORM_KERNEL_SPECS = [("classical", 1, None), ("classical", 4, None), ("spin", 1, None),
                            ("spin", 3, None), ("lpq", 2, 2.0), ("lpq", 2, 3.0), ("lpq", 3, 1.5)]


def _frame_forbidden(*args, **kwargs):
    raise AssertionError("the eigenvalue path built a frame")


@pytest.mark.parametrize("kind,n,p", CLOSED_FORM_KERNEL_SPECS
                         + [(kind, n, None) for kind, n in MATRIX_KERNEL_SPECS])
def test_the_eigenvalue_path_builds_no_frame(monkeypatch, kind, n, p, tol):
    # the eigenvalue entry points give the frame's eigenvalues bit for bit
    # with the frame kernel unreachable, so a check comparing the two paths
    # compares two computations
    model = get_model(kind, n, p)
    random = random_element(model, 2312 + n)
    elements = {"random": random, "zero": model.zero(), "unit": model.order_unit(),
                "ties": model.element(np.resize([1.0, -2.0, 1.0, -0.0], model.ambient_dim)),
                "random*1e100": random * 1e100, "random*1e-100": random * 1e-100}
    stack = np.array([a.coords for a in elements.values()])
    frames = [model.decompose_coords(a.coords, tol)[0] for a in elements.values()]
    monkeypatch.setitem(vars(model), "_frames", _frame_forbidden)
    batch = model.eigenvalues_batch(stack, tol)
    for k, (label, a) in enumerate(elements.items()):
        _assert_same_bits(model.eigenvalues(a, tol), frames[k], label)
        _assert_same_bits(model.eigenvalues_coords(a.coords, tol), frames[k], label)
        _assert_same_bits(batch[k], frames[k], label)


def test_matrix_coords_maps_a_stack():
    for kind, n in MATRIX_KERNEL_SPECS:
        model = get_model(kind, n)
        mats = np.stack([model.to_matrix(random_element(model, k)) for k in range(6)])
        stacked = model.matrix_coords(mats.reshape(2, 3, n, n))
        assert stacked.shape == (2, 3, model.ambient_dim)
        for k, mat in enumerate(mats):
            np.testing.assert_array_equal(stacked[k // 3, k % 3], model.matrix_coords(mat))


def test_eigenvalues_take_coordinates(any_model, tol):
    # an element and its coordinate vector reach the one kernel alike
    for seed in range(5):
        a = random_element(any_model, seed)
        assert any_model.eigenvalues(a.coords, tol).tobytes() == \
            any_model.eigenvalues(a, tol).tobytes()


# ---------------------------------------------------------------------------
# batch kernels: every row of a (K, d) stack as the per-element kernels give it
# ---------------------------------------------------------------------------

# besides the conftest specs: one-dimensional families and extreme exponents
BATCH_EXTRA_SPECS = [("classical", 1, None), ("spin", 1, None), ("sym", 1, None),
                     ("lpq", 2, 1.001), ("lpq", 3, 3.0), ("lpq", 2, 1000.0)]


def _same(got, want) -> bool:
    """Equal bit for bit: np.array_equal, and the same signs of zeros."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want) and got.tobytes() == want.tobytes()


def _batch_rows(model, seed):
    """Random rows, logic elements (clustered spectra), multiples of the unit
    (x = 0 on the capacity-two families) and extreme scales, as one stack."""
    unit = model.order_unit_coords()
    rows = [random_element(model, seed + k).coords for k in range(8)]
    rows += [random_element(model, seed + k, "logic").coords for k in range(8)]
    rows += [scale * unit for scale in (0.0, -0.0, 1.0, -2.5, 1e-300)]
    rows += [scale * rows[0] for scale in (1e150, 1e-150, 1e-310)]
    return np.array(rows)


def _assert_rows_match(model, stack, tol):
    values, atoms = model.decompose_batch(stack, tol)
    eigs = model.eigenvalues_batch(stack, tol)
    m, d = model.info_capacity, model.ambient_dim
    assert values.shape == eigs.shape == (len(stack), m)
    assert atoms.shape == (len(stack), m, d) and atoms.flags.c_contiguous
    for k, row in enumerate(stack):
        row_values, row_atoms = model.decompose_coords(row, tol)
        assert _same(values[k], row_values) and _same(atoms[k], row_atoms)
        assert row_atoms.flags.c_contiguous
        assert _same(eigs[k], model.eigenvalues_coords(row, tol))


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS + BATCH_EXTRA_SPECS)
def test_batch_kernels_equal_the_per_row_kernels(kind, n, p, tol):
    model = get_model(kind, n, p)
    stack = _batch_rows(model, 40 + n)
    _assert_rows_match(model, stack, tol)
    for k in range(len(stack)):
        _assert_rows_match(model, stack[k:k + 1], tol)
    _assert_rows_match(model, stack[:0], tol)


def test_batch_kernels_see_clusters_and_empty_directions():
    # the stacks above hold what the per-row kernels resolve specially
    tol = Tolerance()
    herm = get_model("herm", 3)
    eigs = herm.eigenvalues_batch(_batch_rows(herm, 43), tol)
    assert (np.diff(eigs, axis=1) == 0.0).any()  # a degenerate cluster
    spin = get_model("spin", 3)
    values, atoms = spin.decompose_batch(_batch_rows(spin, 43), tol)
    assert (values[:, 0] == values[:, 1]).any()  # x = 0: the fixed direction
    np.testing.assert_array_equal(atoms[16, 0], [0.5, 0.5, 0.0, 0.0])


def test_batch_kernels_refuse_an_overflowing_row_like_spectral_form(any_model, tol):
    big = np.full(any_model.ambient_dim, 1e308)
    stack = np.stack([random_element(any_model, 3).coords, big])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eigs = any_model.eigenvalues_batch(stack, tol)  # returned, like eigenvalues_coords
        assert _same(eigs[1], any_model.eigenvalues_coords(big, tol))
        if np.isfinite(eigs).all():  # classical: the eigenvalues are the coordinates
            assert _same(any_model.decompose_batch(stack, tol)[0], eigs)
            return
        with pytest.raises(ValueError, match="outside the range of a double") as form:
            any_model.spectral_form(any_model.element(big), tol)
        for rows in (stack, stack[::-1], big[np.newaxis]):
            with pytest.raises(ValueError) as batch:
                any_model.decompose_batch(rows, tol)
            assert str(batch.value) == str(form.value)


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS + BATCH_EXTRA_SPECS)
def test_native_pairings_equal_the_per_row_pairing(kind, n, p, tol):
    # the rows hold +-0, 1e150, 1e-150 and the subnormal 1e-310 multiples
    model = get_model(kind, n, p)
    stack = _batch_rows(model, 50 + n)
    others = [stack, stack[::-1], np.concatenate((-stack[1:], stack[:1]))]
    if not model.symmetric_tp:
        with pytest.raises(UnsupportedModelError):
            model.native_pairings(stack, stack)
        return
    for other in others:
        want = [model.native_pairing(a, b) for a, b in zip(stack, other)]
        assert _same(model.native_pairings(stack, other), want)
    assert model.native_pairings(stack[:0], stack[:0]).shape == (0,)
    # frames (K, m, d) against one row each, as inner products pair them
    atoms = model.decompose_batch(stack, tol)[1]
    want = [[model.native_pairing(atom, b) for atom in frame] for frame, b in zip(atoms, stack)]
    assert _same(model.native_pairings(atoms, stack[:, np.newaxis]), want)


# ---------------------------------------------------------------------------
# matrix backends in coordinates: rank-one atoms and the trace form
# ---------------------------------------------------------------------------

COORDINATE_KERNEL_SPECS = [("sym", 1), ("sym", 2), ("sym", 3), ("sym", 4),
                           ("herm", 1), ("herm", 2), ("herm", 3)]


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,n", COORDINATE_KERNEL_SPECS)
def test_atom_coords_are_the_outer_product_coords(kind, n):
    model = get_model(kind, n)
    rng = np.random.default_rng(31 + n)
    params = [model.random_atom_param(rng) for _ in range(50)] + list(np.eye(n))
    for v in params:
        want = model.matrix_coords(np.outer(v, v.conj()))
        assert _same_bits(model.atom_coords(v), want)
        if kind == "herm":  # the interleaved (re, im) parameter names the same atom
            pairs = np.column_stack((v.real, v.imag)).ravel()
            assert _same_bits(model.atom_coords(pairs), want)


@pytest.mark.parametrize("kind,n", COORDINATE_KERNEL_SPECS)
def test_matrix_coords_invert_to_matrix(kind, n):
    model = get_model(kind, n)
    rng = np.random.default_rng(47 + n)
    for scale in (1.0, 1e-150, 1e150):
        coords = scale * rng.normal(size=model.ambient_dim)
        mat = model.to_matrix(coords)
        assert np.array_equal(mat, mat.conj().T)
        assert _same_bits(model.matrix_coords(mat), coords)


@pytest.mark.parametrize("kind,n", COORDINATE_KERNEL_SPECS)
def test_native_pairing_is_the_trace_form(kind, n):
    model = get_model(kind, n)
    rng = np.random.default_rng(59 + n)
    for _ in range(50):
        ca, cb = rng.normal(size=(2, model.ambient_dim)) * 10.0 ** rng.integers(-3, 4, size=(2, 1))
        a, b = model.to_matrix(ca), model.to_matrix(cb)
        pairing = model.native_pairing(ca, cb)
        assert pairing == model.native_pairing(cb, ca)
        assert abs(pairing - np.trace(a @ b).real) <= 1e-15 * np.linalg.norm(a) * np.linalg.norm(b)


@pytest.mark.parametrize("kind", ["sym", "herm"])
def test_pairings_and_atoms_build_no_matrix(kind, monkeypatch):
    model = get_model(kind, 3)
    rng = np.random.default_rng(71)
    ca, cb = rng.normal(size=(2, model.ambient_dim))
    v = model.random_atom_param(rng)

    def no_matrix(coords):
        raise AssertionError("the coordinate formulas need no matrix")

    monkeypatch.setitem(vars(model), "_matrix_from_coords", no_matrix)
    model.atom_coords(v)
    model.state_value(v, ca)
    model.native_pairing(ca, cb)
    with pytest.raises(AssertionError):
        model.to_matrix(ca)

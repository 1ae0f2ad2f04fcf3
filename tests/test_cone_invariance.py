"""Invariance of the self-dual cone layer under the symmetries the theory
guarantees.

Conjugation by an orthogonal matrix on sym:n, or a unitary one on herm:n, is
an automorphism of the Jordan algebra: it maps the positive cone onto itself
and keeps the trace form.  So the Moreau parts of a conjugated element are
the conjugated parts, and its cone defect and frame coefficients (its
eigenvalues) do not move.  A rotation of a generator cone's generators maps
the cone onto the rotated cone and keeps the dot product, so its Moreau
parts, cone defects and frame coefficients move with it, and so does its
self-duality report where it draws from the generators.  Each property must
hold to rounding: the sampled inputs are mapped, not the seed.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jordantp import Tolerance, get_model
from jordantp.selfdual import GeneratorSelfDualCone, SpectralSelfDualCone
from jordantp.suites import self_duality_report

TOL = Tolerance()
ROUNDING = 1e-12  # relative to the scale of the inputs

coordinates = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
gaussian_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _orthonormal(gauss):
    """The Q factor of a well-conditioned square matrix, with the signs of
    its R factor's diagonal moved into it."""
    q, r = np.linalg.qr(gauss)
    diag = np.diag(r)
    assume(np.abs(diag).min() > 1e-3)
    return q * (diag / np.abs(diag))


def _assert_close(got, want, scale):
    assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= ROUNDING * scale


def _assert_same_frames(got, want, scale):
    """Two padded frames' coefficients (K, m) agree as multisets row by
    row: sorted, with zeros padded in, as a zero coefficient is no atom."""
    width = max(got.shape[1], want.shape[1])
    got, want = (np.sort(np.pad(v, ((0, 0), (0, width - v.shape[1]))), axis=1)
                 for v in (got, want))
    _assert_close(got, want, scale)


def _check_conjugation(cone, stack, unitary):
    model = cone.model

    def conjugate(coords):
        return model.matrix_coords(unitary @ model.to_matrix(coords) @ unitary.conj().T)

    turned = conjugate(stack)
    scale = 1.0 + np.abs(stack).max()
    for part, turned_part in zip(cone.moreau_parts(stack, TOL), cone.moreau_parts(turned, TOL)):
        _assert_close(turned_part, conjugate(part), scale)
    _assert_close(cone.cone_defects(turned, TOL), cone.cone_defects(stack, TOL), scale)
    _assert_same_frames(cone.frames(turned, TOL)[0], cone.frames(stack, TOL)[0], scale)


@settings(max_examples=20, deadline=None)
@given(stack=arrays(np.float64, (4, 6), elements=coordinates),
       gauss=arrays(np.float64, (3, 3), elements=gaussian_entries))
def test_spectral_cone_stacks_commute_with_orthogonal_conjugation_on_sym3(stack, gauss):
    _check_conjugation(SpectralSelfDualCone(get_model("sym", 3)), stack, _orthonormal(gauss))


@settings(max_examples=20, deadline=None)
@given(stack=arrays(np.float64, (4, 4), elements=coordinates),
       gauss=arrays(np.float64, (2, 2, 2), elements=gaussian_entries))
def test_spectral_cone_stacks_commute_with_unitary_conjugation_on_herm2(stack, gauss):
    unitary = _orthonormal(gauss[0] + 1j * gauss[1])
    _check_conjugation(SpectralSelfDualCone(get_model("herm", 2)), stack, unitary)


# the report draws its positive pairs and witness families from the
# generators, so these checks turn with them; it draws its elements c in
# fixed coordinates, so the checks on c keep their verdicts, and the stack
# forms they read are compared on turned inputs
TURNING_CHECKS = ("selfdual.forward", "selfdual.negative_witness")


@settings(max_examples=8, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), seed=st.integers(0, 3))
def test_generator_cones_do_not_move_under_a_rotation_of_the_generators(data, d, seed):
    generators = _orthonormal(data.draw(arrays(np.float64, (d, d), elements=gaussian_entries)))
    rotation = _orthonormal(data.draw(arrays(np.float64, (d, d), elements=gaussian_entries)))
    stack = data.draw(arrays(np.float64, (4, d), elements=coordinates))
    cone = GeneratorSelfDualCone(generators)
    turned = GeneratorSelfDualCone(generators @ rotation.T)
    report = self_duality_report(cone, seed, 8, TOL)
    again = self_duality_report(turned, seed, 8, TOL)
    assert [(c.name, c.passed) for c in again] == [(c.name, c.passed) for c in report]
    for got, want in zip(again, report):
        if want.name in TURNING_CHECKS:
            _assert_close(got.defect, want.defect, 1.0)
        if want.witness is not None:
            _assert_close(got.witness, rotation @ np.array(want.witness), 10.0)
    moved = stack @ rotation.T
    scale = 1.0 + np.abs(stack).max()
    for part, turned_part in zip(cone.moreau_parts(stack, TOL), turned.moreau_parts(moved, TOL)):
        _assert_close(turned_part, part @ rotation.T, scale)
    _assert_close(turned.cone_defects(moved, TOL), cone.cone_defects(stack, TOL), scale)
    _assert_same_frames(turned.frames(moved, TOL)[0], cone.frames(stack, TOL)[0], scale)


@settings(max_examples=20, deadline=None)
@given(gauss=arrays(np.float64, (2, 2, 2), elements=gaussian_entries))
def test_a_generator_and_its_negative_are_one_atom_in_every_rotated_plane_orthant(gauss):
    # the projection of -g, for a generator g, is rounding noise, which the
    # frame skips, so +-g keeps one atom whatever the rotation.  Only in the
    # plane: from three dimensions on, scipy's NNLS misses the zero
    # projection of some -g
    for generators in (_orthonormal(gauss[0]), _orthonormal(gauss[0]) @ _orthonormal(gauss[1]).T):
        rays = np.concatenate((generators, -generators))
        values = GeneratorSelfDualCone(generators).frames(rays, TOL)[0]
        assert np.count_nonzero(values, axis=1).tolist() == [1] * 4

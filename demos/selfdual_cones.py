#!/usr/bin/env python3
"""Euclidean spaces with self-dual cones: Moreau splits, atom peeling and the
two properties that recover the full structure (unity resolution and the
certainty order property).

The rotated orthant passes everything; the cone over a square is contained
in its dual but not equal to it, and the witness check says so.
"""

import numpy as np

from jordantp import (
    GeneratorSelfDualCone,
    SpectralSelfDualCone,
    get_model,
    moreau_decompose,
    peel_spectral,
    recover_order_unit,
    self_duality_report,
    symmetry_defect,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_unity_resolution,
)


def main():
    he = get_model("herm", 3)
    cone = SpectralSelfDualCone(he)
    rng = np.random.default_rng(0)
    a = cone.random_element(rng)
    pair = moreau_decompose(cone, a)
    print("Moreau split of a random Hermitian element:")
    print(f"  <a+|a-> = {cone.inner(pair.a_plus, pair.a_minus):.2e}")
    print(f"  both parts in the cone: "
          f"{cone.contains(pair.a_plus) and cone.contains(pair.a_minus)}")

    peeled = peel_spectral(cone, a)
    print(f"  peeled into {len(peeled)} atoms with coefficients "
          f"{np.round([p.coefficient for p in peeled], 4)}")
    print("  (the peeling takes one eigenpair per step from a plain SVD,"
          " not from the dense eigensolver)")

    unit = recover_order_unit(cone, seed=1)
    print(f"\norder unit recovered as the sum of a random maximal atom family:\n"
          f"{np.round(he.to_matrix(unit), 10)}")

    print("\nrotated orthant (a self-dual polyhedral cone):")
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    orthant = GeneratorSelfDualCone(q.T)
    for check in (verify_unity_resolution(orthant, seed=2, trials=40)
                  + verify_certainty_order(orthant, seed=2, trials=40)
                  + verify_atom_state_uniqueness(orthant, seed=2, trials=40)
                  + self_duality_report(orthant, seed=2, trials=40)):
        print(f"  {check.name:36s} defect {check.defect:9.2e}  "
              f"{'ok' if check.passed else 'FAIL'}")
    print(f"  {'pairing symmetry defect':36s} defect "
          f"{symmetry_defect(orthant, seed=2, trials=40):9.2e}")

    print("\ncone over a square (strictly contained in its dual):")
    gens = 0.5 * np.array([[1, 1, np.sqrt(2)], [1, -1, np.sqrt(2)],
                           [-1, 1, np.sqrt(2)], [-1, -1, np.sqrt(2)]])
    square = GeneratorSelfDualCone(gens)
    for check in self_duality_report(square, seed=4, trials=60):
        print(f"  {check.name:36s} defect {check.defect:9.2e}  "
              f"{'ok' if check.passed else 'FAIL'}")


if __name__ == "__main__":
    main()

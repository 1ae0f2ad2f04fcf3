#!/usr/bin/env python3
"""Transition probabilities: symmetric on the matrix models, asymmetric on
the l^p qubit models for p != 2.

When the transition probability is symmetric it extends to an inner product
that self-dualizes the positive cone; the induced Hilbert norm is sandwiched
between the order norm and sqrt(capacity) times the order norm.
"""

import numpy as np

from jordantp import (
    SpectralSelfDualCone,
    check_inner_product,
    get_model,
    inner_product,
    self_duality_report,
    symmetry_defect,
    tp_matrix,
)


def main():
    print("symmetry defect over 200 sampled atom pairs:")
    for spec in [("classical", 4, None), ("spin", 3, None), ("sym", 4, None),
                 ("herm", 3, None), ("lpq", 2, 2.0), ("lpq", 2, 1.5),
                 ("lpq", 2, 3.0), ("lpq", 2, 4.0)]:
        model = get_model(*spec)
        print(f"  {model!r:28s} {symmetry_defect(model, seed=7, trials=200):.3e}")

    print("\nthe asymmetry in one pair of l^3 atoms:")
    lq = get_model("lpq", 2, 3.0)
    e1 = lq.atom(np.array([1.0, 0.0]))
    e2 = lq.atom(2.0 ** (-1.0 / 3.0) * np.ones(2))
    mat = tp_matrix(lq, [e1, e2]).matrix
    print(f"  P_e1(e2) = {mat[0, 1]:.9f}")
    print(f"  P_e2(e1) = {mat[1, 0]:.9f}")

    print("\na 3x3 table on the Hermitian qubit (always symmetric):")
    he = get_model("herm", 2)
    atoms = [he.atom(np.array([1.0, 0.0])),
             he.atom(np.array([1.0, 1.0]) / np.sqrt(2.0)),
             he.atom(np.array([1.0, 1.0j]) / np.sqrt(2.0))]
    print(np.round(tp_matrix(he, atoms).matrix, 6))

    print("\ninner product on herm(2): <unit|unit> =",
          inner_product(he, he.order_unit(), he.order_unit()))
    print("inner product (with norm equivalence) and self-duality checks:")
    for check in (check_inner_product(he, 1, 100)
                  + self_duality_report(SpectralSelfDualCone(he), 1, 100)):
        print(f"  {check.name:36s} defect {check.defect:9.2e}  "
              f"{'ok' if check.passed else 'FAIL'}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tour of the spectral layer: one decomposition per model family.

Every element of every model resolves into a weighted sum of pairwise
orthogonal atoms that complete to the order unit.  The eigenvalues are the
possible measurement outcomes; the order norm is the largest magnitude.
"""

import numpy as np

from jordantp import get_model, order_norm


def show(model, a, label):
    form = model.spectral_form(a)
    print(f"\n{label}  (model {model!r})")
    print(f"  element        {np.array2string(a.coords, precision=4)}")
    print(f"  eigenvalues    {np.array2string(form.eigenvalues, precision=6)}")
    for pair in form.pairs:
        print(f"    atom for {pair.eigenvalue:+.4f}: "
              f"{np.array2string(pair.atom.coords, precision=4)}")
    resid = order_norm(model, form.reconstruct() - a)
    total = sum(p.atom.coords for p in form.pairs)
    print(f"  reconstruction residual {resid:.2e}, "
          f"frame sum error {np.max(np.abs(total - model.order_unit_coords())):.2e}")


def main():
    cl = get_model("classical", 3)
    show(cl, cl.element([3.0, -1.0, 0.5]), "classical vector")

    sp = get_model("spin", 2)
    show(sp, sp.element([1.0, 1.0, 0.0]), "spin factor element (t, x)")

    sy = get_model("sym", 3)
    mat = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    show(sy, sy.from_matrix(mat), "symmetric matrix")

    he = get_model("herm", 2)
    pauli_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    show(he, he.from_matrix(pauli_y), "Hermitian matrix (Pauli y)")

    lq = get_model("lpq", 2, 3.0)
    show(lq, lq.element([0.4, 0.3, -0.2]), "affine function on the l^3 ball")

    print("\nDegenerate spectra resolve deterministically:")
    a = sy.from_matrix(np.diag([2.0, 2.0, -1.0]))
    form = sy.spectral_form(a)
    print(f"  eigenvalues {form.eigenvalues} -> "
          f"{len(form.pairs)} atoms, frame still exact")


if __name__ == "__main__":
    main()

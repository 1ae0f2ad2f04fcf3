#!/usr/bin/env python3
"""Which convex bodies make valid state spaces?

For each extreme point omega, the minimal unit effect e_omega is the
pointwise infimum of affine functions pinned to 1 at omega and bounded in
[0, 1].  The body qualifies when every e_omega is affine and peaks only at
its own vertex: true for simplices and smooth strictly convex balls, false
for the square and the pentagon.
"""

import numpy as np

from jordantp import (
    PolytopeStateSpace,
    check_extreme_affinity,
    e_omega_value,
    get_model,
    vertex_tp_matrix,
)


def verdict(name, vertices):
    poly = PolytopeStateSpace(vertices)
    reports = check_extreme_affinity(poly, midpoint_samples=32)
    worst = max(r.affinity_defect for r in reports)
    status = "passes" if all(r.passes for r in reports) else "fails"
    print(f"  {name:12s} {status:7s} worst affinity defect {worst:.2e}")
    return poly


def main():
    print("extreme-point affinity across the classic examples:")
    triangle = verdict("triangle", [[0, 0], [1, 0], [0, 1]])
    square = verdict("square", [[0, 0], [1, 0], [1, 1], [0, 1]])
    verdict("tetrahedron", np.vstack([np.zeros(3), np.eye(3)]))
    verdict("pentagon", [[np.cos(2 * np.pi * k / 5), np.sin(2 * np.pi * k / 5)]
                         for k in range(5)])

    print("\nwhy the square fails: values of e_omega0 along its two diagonals")
    center = np.array([0.5, 0.5])
    print(f"  e(center) by LP          = {e_omega_value(square, 0, center):.3f}")
    print("  average over omega0/omega2 diagonal =",
          0.5 * (e_omega_value(square, 0, [0, 0]) + e_omega_value(square, 0, [1, 1])))
    print("  average over omega1/omega3 diagonal =",
          0.5 * (e_omega_value(square, 0, [1, 0]) + e_omega_value(square, 0, [0, 1])))
    print("  an affine function cannot satisfy both at once.")

    print("\nthe triangle is classical: its atoms have the identity TP matrix")
    print(np.round(vertex_tp_matrix(triangle), 9))

    print("\nsmooth balls go through the lpq backend; on the l^3 disk:")
    ball = get_model("lpq", 2, 3.0)
    omega = np.array([1.0, 0.0])
    for zeta in (omega, -omega, np.array([0.0, 1.0]), np.array([0.3, -0.4])):
        print(f"  e_omega({np.array2string(zeta, precision=2)}) ="
              f" {ball.transition_from_params(zeta, omega):.6f}")


if __name__ == "__main__":
    main()

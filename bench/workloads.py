"""Seeded workloads for the jordantp benchmark and the verdict oracle.

Each workload is a pool of requests drawn from the benchmark seed.  A request
is a ``jordantp`` command line plus an oracle that judges the exit code and
the output.  The oracles come from theory, not from a snapshot of output:

* every symmetric family (classical, spin, sym, herm) passes every check;
* ``lpq:n:p`` with n >= 2 and p != 2 fails exactly ``tp.symmetry``;
* simplices pass ``geom`` and every other polytope fails it;
* ``spectral`` returns the eigenvalues the element was built from;
* ``tpmatrix`` tables have unit diagonal, values in [0, 1], and are symmetric
  exactly when the model's transition probability is.

The CLI only ever sees the generated inputs.  Requests are issued in shuffled
rounds that hold every spec or shape once (classical:4 twice), and a run
sends whole rounds, so the mix of a run does not depend on the seed; only
the order and the per-request seeds do.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

# Check names are the report's contract: every verify report carries all of
# them, skipped checks included.  Symmetric models add two inner-product
# checks; non-symmetric ones report that the inner product is unsupported.
COMMON_CHECKS = frozenset("""
certainty.atom_below_effect certainty.state_attains_one
certainty.uncertain_samples_no_claim certainty_ip.atom_below_effect
certainty_ip.pairing_attains_one ip.atom_pairing ip.bilinearity
ip.positive_definite ip.symmetry logic.atom_difference_stays_extreme
logic.atom_sum_stays_extreme logic.complement_stays_extreme
logic.difference_identity logic.information_capacity logic.involution
logic.meet_join_bracket logic.orthogonal_family_pairwise logic.orthomodular_law
moreau.orthogonality moreau.parts_in_cone moreau.reconstruction moreau.uniqueness
norms.lower norms.tightness norms.upper orthogonal.parts_inherit_orthogonality
peel.matches_spectrum peel.unit_interval_coefficients
selfdual.cone_pairings_nonnegative selfdual.dual_vectors_in_cone selfdual.forward
selfdual.negative_witness selfdual.reverse spectral.calculus_identity
spectral.cone_matches_oracle spectral.cone_matches_spectrum
spectral.eigenvalues_sorted spectral.frame_orthogonality
spectral.frame_sums_to_unit spectral.frame_within_capacity
spectral.norm_is_top_eigenvalue spectral.product_bilinear spectral.reconstruction
spectral.unit_acts_neutrally states.atom_state_attains_one
states.half_mixture_value states.mixed_states_below_one states.pure_states_extremal
strong.comparable_consistency strong.witness_certain_of_p strong.witness_found
tp.diagonal_is_one tp.orthogonality_biconditional tp.symmetry
tp.top_atom_attains_norm tp.top_atom_below_element tp.unity_resolution_columns
tp.unity_resolution_rows tp.values_in_unit_range unit.recovered_from_families
unity.families_share_one_sum unity.family_pairings_sum_to_one
""".split())
SYMMETRIC_CHECKS = COMMON_CHECKS | {"ip.unit_pairing", "selfdual.membership_agreement"}
ASYMMETRIC_CHECKS = COMMON_CHECKS | {"ip.unsupported_raises"}

MATRIX_SPECS = ("sym:4", "herm:3")
CLOSEDFORM_SPECS = ("classical:4", "spin:3", "lpq:2:3", "lpq:2:40")
# classical:4 costs most, spin:3 next and the two lpq specs least.  With
# classical:4 twice in a round the median request lies inside the spin:3
# class instead of on the gap between spin:3 and lpq, where it jumped with
# the host's noise.
CLOSEDFORM_ROUND = ("classical:4", *CLOSEDFORM_SPECS)
MATRIX_TRIALS = 8
CLOSEDFORM_TRIALS = 24
MIDPOINT_SAMPLES = 16
TP_ATOMS = 8
NUMERIC_TOL = 1e-9


def _regular_polygon(k: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _simplex(d: int) -> np.ndarray:
    return np.vstack([np.zeros(d), np.eye(d)])


# name -> (vertices, is a simplex).  The 4-simplex costs as much as the
# pentagon, which puts the median request inside one cost class instead of
# on the gap between two, so the median does not jump with the mix of a run.
SHAPES = {
    "triangle": (_simplex(2), True),
    "tetrahedron": (_simplex(3), True),
    "4-simplex": (_simplex(4), True),
    "5-simplex": (_simplex(5), True),
    "square": (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), False),
    "pentagon": (_regular_polygon(5), False),
    "hexagon": (_regular_polygon(6), False),
    "cube": (np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float), False),
    "octahedron": (np.vstack([np.eye(3), -np.eye(3)]), False),
}


@dataclass(frozen=True)
class Request:
    """One CLI call: ``argv`` after the program name, and its oracle.

    ``check(exit_code, stdout)`` returns None when the output is what theory
    predicts, else a one-line reason.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


@dataclass(frozen=True)
class Workload:
    """A seeded request pool, issued in shuffled rounds of ``round_size``
    requests.  ``request_s`` is the wall time
    allotted per request: ``--seconds`` over it, rounded to whole rounds, is
    the fixed number of requests a run sends, so a seed always sends the
    same ones.  The values are near the request times seen on a 2-core
    host."""

    name: str
    in_process: bool
    trace_requests: int
    round_size: int
    request_s: float
    build: Callable[[np.random.Generator, str], list[Request]]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _spec_is_symmetric(spec: str) -> bool:
    parts = spec.split(":")
    return parts[0] != "lpq" or int(parts[1]) == 1 or float(parts[2]) == 2.0


def check_verify(spec: str, rc: int, out: str) -> str | None:
    symmetric = _spec_is_symmetric(spec)
    try:
        report = json.loads(out)
        names = [c["name"] for c in report["checks"]]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        passed = report["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc}"
    canonical = SYMMETRIC_CHECKS if symmetric else ASYMMETRIC_CHECKS
    if len(names) != len(canonical) or set(names) != canonical:
        return "check-name set differs from the canonical one"
    expected = set() if symmetric else {"tp.symmetry"}
    if failed != expected:
        return f"failed checks {sorted(failed)}, theory predicts {sorted(expected)}"
    if passed != (not expected) or rc != (1 if expected else 0):
        return f"exit code {rc} disagrees with the verdict"
    return None


def check_geom(n_vertices: int, simplex: bool, rc: int, out: str) -> str | None:
    try:
        reports = json.loads(out)
        passes = [r["passes"] for r in reports]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc}"
    if len(passes) != n_vertices:
        return f"{len(passes)} reports for {n_vertices} vertices"
    if all(passes) != simplex:
        return f"verdict {all(passes)}, theory predicts {simplex}"
    if rc != (0 if simplex else 1):
        return f"exit code {rc} disagrees with the verdict"
    return None


def check_spectral(eigenvalues: tuple[float, ...], rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(out)
        got = [p["eigenvalue"] for p in payload["pairs"]]
        residual = payload["reconstruction_residual"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc}"
    want = sorted(eigenvalues, reverse=True)
    scale = max(1.0, max(abs(v) for v in want))
    if len(got) != len(want) or any(abs(g - w) > NUMERIC_TOL * scale for g, w in zip(got, want)):
        return f"eigenvalues {got}, built from {want}"
    if not residual <= NUMERIC_TOL * scale:
        return f"reconstruction residual {residual}"
    return None


def check_tpmatrix(k: int, symmetric: bool, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.strip().splitlines()
    try:
        header, rows, tail = lines[0], lines[1:-1], lines[-1]
        table = np.array([[float(x) for x in row.split(",")] for row in rows])
        printed = float(tail.split("=")[1])
    except (IndexError, ValueError) as exc:
        return f"malformed table: {exc}"
    if header.split(",") != [f"e{i}" for i in range(k)] or table.shape != (k, k):
        return "table shape or header is wrong"
    if np.max(np.abs(np.diag(table) - 1.0)) > NUMERIC_TOL:
        return "diagonal is not one"
    if table.min() < -NUMERIC_TOL or table.max() > 1.0 + NUMERIC_TOL:
        return "value outside [0, 1]"
    defect = float(np.max(np.abs(table - table.T)))
    if printed != defect:
        return f"printed symmetry defect {printed}, table gives {defect}"
    if (defect <= NUMERIC_TOL) != symmetric:
        return f"symmetry defect {defect} but the model is {'' if symmetric else 'not '}symmetric"
    return None


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def _similar_copy(vertices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rotate, scale and translate: the affinity verdict is affine invariant."""
    d = vertices.shape[1]
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    return rng.uniform(0.5, 2.0) * vertices @ q.T + rng.normal(size=d)


def _write(path: str, text: str) -> str:
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _write_shape(workdir: str, name: str, vertices: np.ndarray) -> str:
    rows = "\n".join(",".join(format(x, ".17g") for x in row) for row in vertices)
    return _write(os.path.join(workdir, f"{name}.csv"), rows + "\n")


def _element_with_spectrum(spec: str, rng: np.random.Generator) -> tuple[list[float], tuple[float, ...]]:
    """Coordinates of an element built from a known spectrum, and that spectrum."""
    kind, n = spec.split(":")[:2]
    n = int(n)
    if kind == "lpq":
        p = float(spec.split(":")[2])
        q = p / (p - 1.0)
        c, f = rng.normal(), rng.normal(size=n)
        radius = float(np.sum(np.abs(f) ** q) ** (1.0 / q))
        return [c, *f], (c + radius, c - radius)
    gauss = rng.normal(size=(n, n))
    if kind == "herm":
        gauss = gauss + 1j * rng.normal(size=(n, n))
    frame, _ = np.linalg.qr(gauss)
    weights = rng.normal(size=n)
    mat = (frame * weights) @ frame.conj().T
    upper = mat[np.triu_indices(n, k=1)]
    if kind == "sym":
        coords = [*np.diag(mat).real, *upper.real]
    else:
        coords = [*np.diag(mat).real, *np.column_stack([upper.real, upper.imag]).ravel()]
    return [float(x) for x in coords], tuple(float(w) for w in weights)


def _shuffled_rounds(items, rounds: int, rng: np.random.Generator):
    for _ in range(rounds):
        for k in rng.permutation(len(items)):
            yield items[k]


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _verify_pool(specs, trials: int, rounds: int, rng, workdir) -> list[Request]:
    return [Request(spec, ("verify", spec, "--suite", "all", "--trials", str(trials),
                           "--seed", _seed(rng)), partial(check_verify, spec))
            for spec in _shuffled_rounds(specs, rounds, rng)]


def _geom_request(workdir: str, index: int, name: str, rng) -> Request:
    vertices, simplex = SHAPES[name]
    path = _write_shape(workdir, f"{index:03d}-{name}", _similar_copy(vertices, rng))
    return Request(name, ("geom", path, "--midpoint-samples", str(MIDPOINT_SAMPLES),
                          "--seed", _seed(rng)),
                   partial(check_geom, len(vertices), simplex))


def build_geom(rng, workdir) -> list[Request]:
    names = list(_shuffled_rounds(list(SHAPES), 8, rng))
    return [_geom_request(workdir, i, name, rng) for i, name in enumerate(names)]


CLI_COLD_KINDS = ("spectral sym:4", "spectral herm:3", "spectral lpq:2:3",
                  "tpmatrix sym:4", "tpmatrix lpq:2:3", "geom triangle")


def build_cli_cold(rng, workdir) -> list[Request]:
    pool = []
    for i, kind in enumerate(_shuffled_rounds(CLI_COLD_KINDS, 6, rng)):
        command, arg = kind.split()
        if command == "spectral":
            coords, spectrum = _element_with_spectrum(arg, rng)
            path = _write(os.path.join(workdir, f"{i:03d}-element.json"), json.dumps(coords))
            pool.append(Request(kind, ("spectral", arg, path), partial(check_spectral, spectrum)))
        elif command == "tpmatrix":
            pool.append(Request(kind, ("tpmatrix", arg, "--random", str(TP_ATOMS), "--seed", _seed(rng)),
                                partial(check_tpmatrix, TP_ATOMS, _spec_is_symmetric(arg))))
        else:
            pool.append(_geom_request(workdir, i, arg, rng))
    return pool


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-matrix", True, 4, len(MATRIX_SPECS), 0.23,
                 lambda rng, wd: _verify_pool(MATRIX_SPECS, MATRIX_TRIALS, 80, rng, wd)),
        Workload("verify-closedform", True, 8, len(CLOSEDFORM_ROUND), 0.145,
                 lambda rng, wd: _verify_pool(CLOSEDFORM_ROUND, CLOSEDFORM_TRIALS, 80, rng, wd)),
        Workload("geom", True, len(SHAPES), len(SHAPES), 0.36, build_geom),
        Workload("cli-cold", False, 6, len(CLI_COLD_KINDS), 0.8, build_cli_cold),
    )
}

# The request size each workload states; requests_per_s is read at this size.
REQUEST_SIZE = {
    "verify-matrix": f"verify {{{','.join(MATRIX_SPECS)}}} --suite all --trials {MATRIX_TRIALS}",
    "verify-closedform": f"verify {{{','.join(CLOSEDFORM_ROUND)}}} --suite all --trials {CLOSEDFORM_TRIALS}",
    "geom": f"geom {{{','.join(SHAPES)}}} --midpoint-samples {MIDPOINT_SAMPLES}",
    "cli-cold": f"fresh process: spectral/tpmatrix --random {TP_ATOMS}/geom triangle",
}


def build_requests(workload: str, seed: int, workdir: str) -> list[Request]:
    """The request pool of ``workload`` for ``seed``; input files go to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload].build(np.random.default_rng(seed), workdir)

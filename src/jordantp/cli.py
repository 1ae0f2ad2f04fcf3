"""Command-line front end: verification suites, decompositions, transition
probability tables and polytope geometry checks.

Exit codes: 0 all checks passed, 1 at least one check or property failed,
2 usage or input errors, 3 an internal failure of the library.  Identical
command lines with identical seeds produce byte-identical reports (except
wall_time_ms).

Only the layers that ``spectral`` and ``geom`` use are imported here; the
verify suites and the transition layer are imported by the commands that run
them, so a cold process loads what its one command needs.  ``convexgeom``
must stay a module-level import: the layer tracer of ``bench/tracer.py``
finds it in ``sys.modules`` after importing this module and the suites.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .backends import parse_model_spec
from .convexgeom import check_extreme_affinity, polytope_from_csv
from .core import order_norm
from .elements import Tolerance
from .errors import JordanTpError, LinearProgramError, NotAtomError
from .reports import dump_canonical_json, format_double

TOL_KEYS = ("eig_cluster", "cone_slack", "check_tol")
# the keys of suites.SUITES, spelled out so that building the parser does
# not import the suites
SUITE_NAMES = ("axioms", "spectral", "logic", "tp", "selfdual")


def _resolve_seed(value) -> int:
    if value is None:
        value = os.environ.get("JORDAN_TP_SEED", "0")
    seed = int(value)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return seed


def _parse_tol(overrides: list[str]) -> Tolerance:
    kwargs = {}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--tol expects KEY=VAL, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in TOL_KEYS:
            raise ValueError(f"unknown tolerance key {key!r}; known: {TOL_KEYS}")
        kwargs[key] = float(raw)
    return Tolerance(**kwargs)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_array(path: str, what: str) -> list:
    """The entries of the JSON array in the file at ``path``: a number as
    given, an array as a float array.  An entry that is not a number, at any
    depth, raises a ValueError naming it, as does a number beyond the range
    of a double: both are the user's input, not a fault inside numpy."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError(f"{what} must hold a JSON array")

    def check(value, where: str) -> None:
        if isinstance(value, list):
            for i, item in enumerate(value):
                check(item, f"{where}[{i}]")
        elif not isinstance(value, (int, float)):
            raise ValueError(f"{what} entry {where} is not a number: {json.dumps(value)}")
        elif not isinstance(value, float) and abs(value) > sys.float_info.max:
            raise ValueError(f"{what} entry {where} exceeds the range of a double")

    check(data, "")
    return [entry if np.isscalar(entry) else np.asarray(entry, dtype=float) for entry in data]


def _cmd_verify(args) -> int:
    from .suites import run_suite

    model = parse_model_spec(args.model)
    seed = _resolve_seed(args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    tol = _parse_tol(args.tol)
    report = run_suite(model, args.suite, seed, args.trials, tol)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_spectral(args) -> int:
    model = parse_model_spec(args.model)
    tol = _parse_tol(args.tol)
    a = model.element(np.asarray(_json_array(args.element_file, "element file"), dtype=float))
    form = model.spectral_form(a, tol)
    payload = {
        "model": model.descriptor.to_json(),
        "pairs": [{"eigenvalue": p.eigenvalue, "atom": p.atom.to_json()}
                  for p in form.pairs],
        "reconstruction_residual": order_norm(model, form.reconstruct() - a, tol),
    }
    _emit(dump_canonical_json(payload), args.out)
    return 0


def _cmd_geom(args) -> int:
    tol = _parse_tol(args.tol)
    poly = polytope_from_csv(args.vertices_csv)
    reports = check_extreme_affinity(poly, tol, args.midpoint_samples,
                                     seed=_resolve_seed(args.seed))
    _emit(dump_canonical_json([r.to_json() for r in reports]), args.out)
    return 0 if all(r.passes for r in reports) else 1


def _cmd_tpmatrix(args) -> int:
    from .transition import tp_matrix, tp_matrix_from_params

    model = parse_model_spec(args.model)
    if args.random is not None:
        if args.random < 1:
            raise ValueError("--random needs at least one atom")
        rng = np.random.default_rng(_resolve_seed(args.seed))
        # one generator drawing the K atoms in turn, as one stack
        matrix = tp_matrix_from_params(model, model.random_atom_param_batch([rng] * args.random))
    elif args.atoms_file:
        matrix = tp_matrix(model, [model.atom(entry)
                                   for entry in _json_array(args.atoms_file, "atoms file")])
    else:
        raise ValueError("provide an atoms file or --random K")
    text = matrix.to_csv()
    text += f"# symmetry_defect = {format_double(matrix.symmetry_defect())}\n"
    _emit(text, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build costs about
    a millisecond, and parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="jordantp",
        description="Verification toolkit for desk-scale order unit spaces: "
                    "spectral decomposition, quantum logic, transition "
                    "probabilities, self-dual cones and polytope geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="write output to a file")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                        help=f"tolerance override, keys: {', '.join(TOL_KEYS)}")

    verify = sub.add_parser("verify", parents=[common],
                            help="run a verification suite on a model")
    verify.add_argument("model", help="model spec kind:n[:p], e.g. herm:3 or lpq:2:3")
    verify.add_argument("--suite", choices=[*sorted(SUITE_NAMES), "all"], default="all")
    verify.add_argument("--seed", type=int, default=None,
                        help="sampling seed (fallback: JORDAN_TP_SEED, then 0)")
    verify.add_argument("--trials", type=int, default=500)
    verify.add_argument("--format", choices=["json", "csv"], default="json")
    verify.set_defaults(func=_cmd_verify)

    spectral = sub.add_parser("spectral", parents=[common],
                              help="print the spectral form of an element")
    spectral.add_argument("model")
    spectral.add_argument("element_file", help="JSON array of coordinates")
    spectral.set_defaults(func=_cmd_spectral)

    geom = sub.add_parser("geom", parents=[common],
                          help="decide the extreme-point affinity property of a polytope")
    geom.add_argument("vertices_csv", help="CSV, one vertex per row")
    geom.add_argument("--midpoint-samples", type=int, default=0,
                      help="add N random convex combinations of the vertices as probes "
                           "that cross-check the exact affine-fit certificate")
    geom.add_argument("--seed", type=int, default=None)
    geom.set_defaults(func=_cmd_geom)

    tpm = sub.add_parser("tpmatrix", parents=[output],
                         help="tabulate transition probabilities between atoms")
    tpm.add_argument("model")
    tpm.add_argument("atoms_file", nargs="?",
                     help="JSON array of atom parameters (see README for layouts)")
    tpm.add_argument("--random", type=int, metavar="K",
                     help="sample K random atoms instead of reading a file")
    tpm.add_argument("--seed", type=int, default=None)
    tpm.set_defaults(func=_cmd_tpmatrix)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # no command reads atom coordinates, and every LP is the library's own,
    # built from a polytope it accepted: both failures are internal
    except (NotAtomError, LinearProgramError) as exc:
        failure = exc
    except (JordanTpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure must not read as a failed check
        failure = exc
    print(f"error: internal failure: {type(failure).__name__}: {failure}", file=sys.stderr)
    return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

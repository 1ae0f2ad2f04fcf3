"""Check results and machine-readable verification reports, and the CSV
input of polytopes and generator cones.

Reports are emitted as canonical JSON with 17-significant-digit doubles so
identical runs produce byte-identical output (modulo wall_time_ms).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import as_input_error


def read_csv_rows(path) -> np.ndarray:
    """The rows of a CSV file of numbers, one array row each.  An empty file
    gives no rows and no warning: the caller's size check names it.  Text
    that is not rows of numbers of one length raises an ``InputError``."""
    with warnings.catch_warnings(), as_input_error(ValueError):
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", ndmin=2)


def format_double(x: float) -> str:
    """17 significant digits: lossless round trip for IEEE doubles."""
    x = float(x)
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _dump(value) -> str:
    # the commonest types first; a bool is an int, so it is tested before int.
    # For a string, encode_basestring_ascii is what json.dumps returns
    if isinstance(value, float):
        return format_double(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        inner = ", ".join(f"{_dump(k)}: {_dump(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dump_canonical_json(value) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting."""
    return _dump(value)


@dataclass(frozen=True)
class CheckResult:
    """One verified property: passed iff defect <= tolerance."""

    name: str
    defect: float
    tolerance: float
    witness: tuple | None = None
    skipped: bool = False
    note: str | None = None

    @property
    def passed(self) -> bool:
        return bool(self.defect <= self.tolerance)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "defect": float(self.defect),
            "tolerance": float(self.tolerance),
        }
        if self.skipped:
            out["skipped"] = True
        if self.note is not None:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = [float(x) for x in self.witness]
        return out


def skipped_check(name: str, reason: str) -> CheckResult:
    """A check that could not run; reported explicitly, never dropped."""
    return CheckResult(name=name, defect=0.0, tolerance=0.0, skipped=True, note=reason)


@dataclass
class VerificationReport:
    model: dict
    suite: str
    seed: int
    trials: int
    checks: list[CheckResult] = field(default_factory=list)
    wall_time_ms: int = 0

    def canonical(self) -> "VerificationReport":
        self.checks = sorted(self.checks, key=lambda c: c.name)
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        self.canonical()
        payload = {
            "model": self.model,
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "wall_time_ms": self.wall_time_ms,
        }
        return dump_canonical_json(payload)

    def to_csv(self) -> str:
        self.canonical()
        lines = ["name,passed,defect,tolerance,skipped"]
        for c in self.checks:
            lines.append(
                f"{c.name},{str(c.passed).lower()},{format_double(c.defect)},"
                f"{format_double(c.tolerance)},{str(c.skipped).lower()}"
            )
        return "\n".join(lines) + "\n"

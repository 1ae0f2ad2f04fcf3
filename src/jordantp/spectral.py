"""Seeded sampling, the functional calculus and the polarized product."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .backends.base import AtomSpace, Model
from .core import order_norms
from .elements import DEFAULT_TOL, Element, Tolerance, resum
from .errors import InputError

# the weights of the m frame atoms of an element of each spectral shape
_WEIGHTS = {
    "any": lambda rng, m: rng.normal(size=m),
    "positive": lambda rng, m: np.abs(rng.normal(size=m)),
    "unit_interval": lambda rng, m: rng.uniform(size=m),
    "logic": lambda rng, m: rng.integers(0, 2, size=m).astype(float),
}
SHAPES = tuple(_WEIGHTS)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four 64-bit words PCG64 draws from ``SeedSequence(entropy=seed,
    spawn_key=(trial,))``, hashed once: a generator seeded from them draws
    exactly what ``default_rng`` of that seed sequence draws."""

    def __init__(self, seed: int, trial: int):
        self.words = np.random.SeedSequence(entropy=seed, spawn_key=(trial,)).generate_state(
            4, np.uint64)
        self.words.setflags(write=False)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words are 4 of uint64, not {n_words} of {np.dtype(dtype)}")
        return self.words


@lru_cache(maxsize=1024)
def _seed_words(seed: int, trial: int) -> _SeedWords:
    return _SeedWords(seed, trial)


# the named streams of a trial, each drawn at one place: "" holds the first
# draws, the others the draws that follow another verifier's
STREAMS = ("", "b", "c", "extra", "ip", "mixtures", "junk", "effects", "picks", "uncertain")
# stream name -> its advance, as ``PCG64.jumped`` makes non-overlapping
# streams: i jumps of 2^128 times the golden ratio, mod 2^128
_ADVANCE = {name: i * 0x9E3779B97F4A7C15F39CC0605CEDC835 % 2**128
            for i, name in enumerate(STREAMS)}


def trial_rng(seed: int, trial: int, stream: str = "") -> np.random.Generator:
    """Per-trial generator derived from (seed, trial index, stream name).

    Parallel and serial sweeps over trials therefore draw identical samples.
    Stream "" draws what ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(trial,)))`` draws, stream ``STREAMS[i]`` what that PCG64
    ``jumped(i)`` draws.  The verifiers pass one generator per trial to the
    batch samplers (``_random_element`` and the backends'
    ``random_*_batch``): row k of a batch is trial k's, drawn from its
    generator alone, and each generator makes its draws in the order of the
    per-trial loop (the first atom of every trial, then the second of every
    trial, ...), so a batched sweep draws exactly what that loop draws.  The
    hashed seed words of the last 1,024 (seed, trial) pairs are cached, so
    the verifiers that replay a trial share that cost.
    """
    bits = np.random.PCG64(_seed_words(int(seed), int(trial)))
    if stream:
        bits.advance(_ADVANCE[stream])
    return np.random.Generator(bits)


def trial_rngs(seed: int, trials, stream: str = "") -> list[np.random.Generator]:
    """``trial_rng(seed, k, stream)`` for each trial k of ``trials``, a count
    or a range of trial indices: the generators of a sampled verifier, one
    per trial.  Fewer than one trial raises."""
    rows = trials if isinstance(trials, range) else range(trials)
    if not rows:
        raise InputError("trials must be >= 1")
    return [trial_rng(seed, k, stream) for k in rows]


def random_element(model: Model, seed: int, shape: str = "any") -> Element:
    """Deterministic random element with the requested spectral shape."""
    if shape not in SHAPES:
        raise InputError(f"shape must be one of {SHAPES}, got {shape!r}")
    return model.element(_random_element(model, [np.random.default_rng(int(seed))], shape)[0])


def _random_element(model: Model, rngs: Sequence[np.random.Generator],
                    shape: str = "any") -> np.ndarray:
    """The package's one element sampler: a (K, d) stack whose row k holds
    the coordinates of the element drawn from rngs[k] alone: a random frame,
    then one weight per atom of that frame, the weighted atoms summed in
    frame order from zero."""
    atoms = model.atom_coords_batch(model.random_frame_params_batch(rngs))
    # a cone pads a shorter family with zero atoms, and no atom is zero: each
    # generator draws the weights of its own family, and a padded atom gets
    # weight -0.0, which adds nothing to a sum, signed zeros included
    sizes = np.count_nonzero(atoms.any(axis=-1), axis=1).tolist()
    weights = np.full(atoms.shape[:2], -0.0)
    for row, rng, size in zip(weights, rngs, sizes):
        row[:size] = _WEIGHTS[shape](rng, size)
    return resum(weights, weights, atoms)


def _parts(stack) -> tuple:
    """The arrays of a stack: itself, or the two parts of a frame stack."""
    return stack if isinstance(stack, tuple) else (stack,)


# stage -> the stream whose first draw it is, and the draw, which looks the
# sampler up by name when it runs.  The stages: the samples a, b and c of the
# spectral, inner-product and Moreau checks; the first atom of the atom-state
# checks and of the capacity search; the frame and further atom of the unity
# check
_STAGES = {
    "a": ("", lambda space, rngs: _random_element(space, rngs)),
    "b": ("b", lambda space, rngs: _random_element(space, rngs)),
    "c": ("c", lambda space, rngs: _random_element(space, rngs)),
    "atom": ("", lambda space, rngs: space.random_atom_param_batch(rngs)),
    "frame": ("", lambda space, rngs: space.random_frame_params_batch(rngs)),
    "extra": ("extra", lambda space, rngs: space.random_atom_param_batch(rngs)),
}
# derived stack -> the stack it is computed from, row by row, and how
_DERIVED = {
    "a_frames": ("a", lambda record, a: record.model.decompose_batch(a, record.tol)),
    "a_eigenvalues": ("a", lambda record, a: record.model.eigenvalues_batch(a, record.tol)),
    "atom_coords": ("atom", lambda record, params: record.model.atom_coords_batch(params)),
    "complement_frames": ("atom_coords", lambda record, atoms: record.model.decompose_batch(
        record.model.order_unit().coords - atoms, record.tol)),
    "frame_coords": ("frame", lambda record, params: record.model.atom_coords_batch(params)),
    "extra_coords": ("extra", lambda record, params: record.model.atom_coords_batch(params)),
}


class DrawRecord(int):
    """The trial draws of one verify run on one model, each drawn and
    decomposed once and shared by the verifiers that replay them.

    A record is an ``int`` equal to the run's seed, so it goes wherever a
    seed goes: ``run_suite`` makes one per run and passes it to the suites
    as their seed, and a verifier given a plain seed, or the record of
    another model or tolerance, makes its own (``of``).  A record thus lives
    for one run, and concurrent runs share none.  It is a memo of the named
    stacks of ``_STAGES`` and ``_DERIVED``, nothing keyed by content.  The
    atom stages draw on any atom space, a cone's record among them.

    Row k of a stage is the first draw of its stream of trial k,
    ``trial_rng(seed, k, stream)``, so a stack grows by rows as a verifier
    asks for more trials, and a derived stack (frames, spectra, atoms) is
    computed row by row with it, as a row of ``decompose_batch`` does not
    depend on the rest of its stack.  The stacks are read-only.
    """

    def __new__(cls, seed: int, model: AtomSpace, tol: Tolerance):
        record = super().__new__(cls, seed)
        record.model, record.tol, record._stacks = model, tol, {}
        return record

    @classmethod
    def of(cls, model: AtomSpace, seed: int, tol: Tolerance) -> "DrawRecord":
        """``seed`` itself if it is a record of ``model`` at ``tol``, else a
        new record of that seed."""
        if isinstance(seed, cls) and seed.model is model and seed.tol == tol:
            return seed
        return cls(seed, model, tol)

    def rows(self, name: str, n: int):
        """The first n rows of stack ``name``, a stage or a derived stack,
        drawing or computing the rows it lacks.  Fewer than one row raises,
        as ``trial_rngs`` does."""
        if n < 1:
            raise InputError("trials must be >= 1")
        # a stack is kept as the tuple of its parts: one array, or a frame's two
        have = self._stacks.get(name, ())
        done = len(have[0]) if have else 0
        if done < n:
            new = _parts(self._extend(name, done, n))
            if have:
                new = tuple(map(np.concatenate, zip(have, new)))
            for part in new:
                part.setflags(write=False)
            self._stacks[name] = have = new
        head = tuple(part[:n] for part in have)
        return head if len(head) > 1 else head[0]

    def _extend(self, name: str, lo: int, hi: int):
        """Rows lo to hi of stack ``name``, whose rows before lo are made."""
        if name in _DERIVED:
            source, compute = _DERIVED[name]
            return compute(self, self.rows(source, hi)[lo:])
        stream, draw = _STAGES[name]
        return draw(self.model, trial_rngs(self, range(lo, hi), stream))


def func_calculus(
    model: Model, a: Element, f: Callable[[float], float], tol: Tolerance = DEFAULT_TOL
) -> Element:
    """Apply a real function to the spectrum: sum of f(s_k) times atom_k."""
    return model.spectral_form(a, tol).apply(f)


def square(model: Model, a: Element, tol: Tolerance = DEFAULT_TOL) -> Element:
    return func_calculus(model, a, lambda s: s * s, tol)


def jordan_product_polarized(
    model: Model, a: Element, b: Element, tol: Tolerance = DEFAULT_TOL
) -> Element:
    """Polarized product from squares.

    Not guaranteed bilinear: it is linear in each slot exactly when the model
    is a Jordan algebra; see ``linearity_defect`` for the diagnostic.
    """
    plus = square(model, a + b, tol)
    minus = square(model, a - b, tol)
    return 0.25 * (plus - minus)


def linearity_defect(
    model: Model, seed: int, trials: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Largest additivity violation of the polarized product over samples:
    the order norm of (a, b + c) - (a, b) - (a, c) for the samples a, b and
    c of the seed's ``DrawRecord`` in each trial."""
    record = DrawRecord.of(model, seed, tol)
    return worst(linearity_defects(model, *(record.rows(stage, trials) for stage in "abc"), tol))


def linearity_defects(model: Model, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The additivity violation of each row of three (K, d) stacks."""
    lhs, ab, ac = np.split(polarized_coords(model, np.concatenate((a, a, a)),
                                            np.concatenate((b + c, b, c)), tol), 3)
    return order_norms(model, lhs - (ab + ac), tol)


def polarized_coords(model: Model, xs: np.ndarray, ys, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """``jordan_product_polarized`` of the rows of ``xs`` (K, d) with those of
    ``ys`` (a stack, or one coordinate vector for every row), as coordinates
    equal bit for bit; every square comes from one ``decompose_batch``."""
    values, atoms = model.decompose_batch(np.concatenate((xs + ys, xs - ys)), tol)
    plus, minus = np.split(resum(values, values * values, atoms), 2)
    return 0.25 * (plus - minus)


def worst(defects: np.ndarray, floor: float = 0.0) -> float:
    """The largest of ``floor`` and the defects.  A NaN defect is infinitely
    large, as ``cone_distances`` reads a NaN spectrum: a check whose defect was
    never evaluated fails."""
    values = defects.tolist()
    return math.inf if any(map(math.isnan, values)) else max([floor, *values])

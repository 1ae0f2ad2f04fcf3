"""Seeded sampling, the functional calculus and the polarized product."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .backends.base import Model
from .core import order_norms
from .elements import DEFAULT_TOL, Element, Tolerance, resum

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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator derived from (seed, trial index).

    Parallel and serial sweeps over trials therefore draw identical samples.
    The draws are those of ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(trial,)))``.  The verifiers keep one generator per trial and
    pass the list of them to the batch samplers (``random_coords_batch`` and
    the backends' ``random_*_batch``): row k of a batch is trial k's, drawn
    from its generator alone, and each generator makes its draws in the
    order of the per-trial loop (the first atom of every trial, then the
    second of every trial, ...), so a batched sweep draws exactly what that
    loop draws.  The hashed seed words of the last 1,024
    (seed, trial) pairs are cached, so the verifiers that replay a trial
    share that cost; every call still returns a fresh generator at the start
    of the trial's stream.
    """
    return np.random.Generator(np.random.PCG64(_seed_words(int(seed), int(trial))))


def trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    """``trial_rng(seed, k)`` for k in range(trials): the generators of a
    sampled verifier, one per trial.  Fewer than one trial raises."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [trial_rng(seed, k) for k in range(trials)]


def random_element(model: Model, seed: int, shape: str = "any") -> Element:
    """Deterministic random element with the requested spectral shape."""
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {SHAPES}, got {shape!r}")
    rng = np.random.default_rng(int(seed))
    return _random_element(model, rng, shape)


def _random_element(model: Model, rng: np.random.Generator, shape: str = "any") -> Element:
    return model.element(_random_coords(model, rng, shape))


def _random_coords(model: Model, rng: np.random.Generator, shape: str = "any") -> np.ndarray:
    """The coordinates of the element ``_random_element`` draws."""
    return random_coords_batch(model, [rng], shape)[0]


def random_coords_batch(model: Model, rngs: Sequence[np.random.Generator],
                        shape: str = "any") -> np.ndarray:
    """A (K, d) stack whose row k holds the coordinates of the element drawn
    from rngs[k]: a random frame, then one weight per atom of that frame,
    the weighted atoms summed in frame order from zero."""
    atoms = model.atom_coords_batch(model.random_frame_params_batch(rngs))
    # a cone pads a shorter family with zero atoms, and no atom is zero: each
    # generator draws the weights of its own family, and a padded atom gets
    # weight -0.0, which adds nothing to a sum, signed zeros included
    sizes = np.count_nonzero(atoms.any(axis=-1), axis=1).tolist()
    weights = np.full(atoms.shape[:2], -0.0)
    for row, rng, size in zip(weights, rngs, sizes):
        row[:size] = _WEIGHTS[shape](rng, size)
    return resum(weights, weights, atoms)


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
    the order norm of (a, b + c) - (a, b) - (a, c) for the first three
    elements drawn in each trial."""
    rngs = trial_rngs(seed, trials)
    a, b, c = (random_coords_batch(model, rngs) for _ in range(3))
    return worst(linearity_defects(model, a, b, c, tol))


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

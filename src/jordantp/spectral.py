"""Seeded sampling, the functional calculus and the polarized product."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .backends.base import Model, remembered
from .core import order_norm
from .elements import DEFAULT_TOL, Element, Tolerance

SHAPES = ("any", "positive", "unit_interval", "logic")


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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator derived from (seed, trial index).

    Parallel and serial sweeps over trials therefore draw identical samples.
    The draws are those of ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(trial,)))``.  Inside ``remembering_spectra`` (one verification
    run, whose memo keeps at most ``MEMO_ENTRIES`` values) the hashed seed
    words of each (seed, trial) are computed once, so the verifiers that
    replay a trial share that cost; every call still returns a fresh
    generator at the start of the trial's stream.
    """
    seed, trial = int(seed), int(trial)
    words = remembered(("seed", seed, trial), lambda: _SeedWords(seed, trial))
    return np.random.Generator(np.random.PCG64(words))


def random_element(model: Model, seed: int, shape: str = "any") -> Element:
    """Deterministic random element with the requested spectral shape."""
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {SHAPES}, got {shape!r}")
    rng = np.random.default_rng(int(seed))
    return _random_element(model, rng, shape)


def _random_element(model: Model, rng: np.random.Generator, shape: str = "any") -> Element:
    frame = model.random_frame_params(rng)
    m = len(frame)
    if shape == "any":
        weights = rng.normal(size=m)
    elif shape == "positive":
        weights = np.abs(rng.normal(size=m))
    elif shape == "unit_interval":
        weights = rng.uniform(size=m)
    elif shape == "logic":
        weights = rng.integers(0, 2, size=m).astype(float)
    else:  # pragma: no cover
        raise ValueError(shape)
    coords = np.zeros(model.ambient_dim)
    for w, param in zip(weights, frame):
        coords += w * model.atom_coords(param)
    return model.element(coords)


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
    """Largest additivity violation of the polarized product over samples."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    for k in range(trials):
        rng = trial_rng(seed, k)
        a = _random_element(model, rng)
        b = _random_element(model, rng)
        c = _random_element(model, rng)
        lhs = jordan_product_polarized(model, a, b + c, tol)
        rhs = jordan_product_polarized(model, a, b, tol) + jordan_product_polarized(model, a, c, tol)
        worst = max(worst, order_norm(model, lhs - rhs, tol))
    return worst

"""Seeded sampling, the functional calculus and the polarized product."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .backends.base import Model
from .core import order_norm
from .elements import DEFAULT_TOL, Element, Tolerance

SHAPES = ("any", "positive", "unit_interval", "logic")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator derived from (seed, trial index).

    Parallel and serial sweeps over trials therefore draw identical samples.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),)))


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

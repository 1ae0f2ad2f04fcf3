"""The run memo: within one verification run each spectrum and each trial's
seed words are computed once, and nothing a run reports changes.

``remembering_spectra`` (``backends/base.py``) opens the memo that
``run_suite`` wraps around its suites.  These tests pin its contract: the two
spectral paths fill separate slots, a failure is never remembered, the memo
is bounded, dropped at the end of the block and kept apart per thread, and
the reports and draws are those of the plain calls.
"""

import sys
import threading

import numpy as np
import pytest

from conftest import ALL_MODEL_SPECS, SYMMETRIC_MODEL_SPECS
from jordantp import get_model, random_element
from jordantp.backends import base
from jordantp.backends.base import MEMO_ENTRIES, remembered, remembering_spectra
from jordantp.cli import main
from jordantp.reports import dump_canonical_json
from jordantp.spectral import _SeedWords, trial_rng
from jordantp.suites import (
    SUITES,
    axioms_suite,
    logic_suite,
    run_suite,
    selfdual_suite,
    spectral_suite,
    tp_suite,
)


def _count_kernel(monkeypatch, model):
    """Count the calls that reach each kernel entry point of ``model``."""
    counts = {"decompose_coords": 0, "eigenvalues_coords": 0}
    for name in counts:
        kernel = getattr(model, name)

        def counted(coords, tol, kernel=kernel, name=name):
            counts[name] += 1
            return kernel(coords, tol)

        monkeypatch.setattr(model, name, counted)
    return counts


def test_equal_coordinates_reach_each_kernel_once(monkeypatch, any_model, tol):
    counts = _count_kernel(monkeypatch, any_model)
    a = random_element(any_model, 5)
    twin = any_model.element(a.coords.copy())
    assert twin is not a
    with remembering_spectra():
        form = any_model.spectral_form(a, tol)
        assert any_model.spectral_form(twin, tol) is form
        eigs = any_model.eigenvalues(a, tol)
        assert any_model.eigenvalues(twin.coords, tol) is eigs
        assert counts == {"decompose_coords": 1, "eigenvalues_coords": 1}
        # another tolerance is another spectrum
        any_model.eigenvalues(a, tol.replace(eig_cluster=1e-6))
        assert counts["eigenvalues_coords"] == 2
    np.testing.assert_array_equal(eigs, form.eigenvalues)


def test_the_two_spectral_paths_never_serve_each_other(monkeypatch, any_model, tol):
    counts = _count_kernel(monkeypatch, any_model)
    a, b = random_element(any_model, 6), random_element(any_model, 7)
    with remembering_spectra():
        any_model.spectral_form(a, tol)
        any_model.eigenvalues(a, tol)
        assert counts == {"decompose_coords": 1, "eigenvalues_coords": 1}
        any_model.eigenvalues(b, tol)
        any_model.spectral_form(b, tol)
        assert counts == {"decompose_coords": 2, "eigenvalues_coords": 2}


def test_outside_a_run_every_call_reaches_the_kernel(monkeypatch, any_model, tol):
    counts = _count_kernel(monkeypatch, any_model)
    a = random_element(any_model, 8)
    with remembering_spectra():
        any_model.spectral_form(a, tol)
        any_model.eigenvalues(a, tol)
    assert base._MEMO.get() is None
    for _ in range(3):
        any_model.spectral_form(a, tol)
        any_model.eigenvalues(a, tol)
    assert counts == {"decompose_coords": 4, "eigenvalues_coords": 4}


def test_memo_keeps_at_most_its_bound(monkeypatch, tol):
    model = get_model("classical", 4)
    counts = _count_kernel(monkeypatch, model)
    elements = [model.element([float(k), 0.0, 1.0, -1.0]) for k in range(3000)]
    with remembering_spectra():
        memo = base._MEMO.get()
        for a in elements:
            model.spectral_form(a, tol)
            assert len(memo) <= MEMO_ENTRIES
        assert len(memo) == MEMO_ENTRIES
        assert counts["decompose_coords"] == 3000
        model.spectral_form(elements[-1], tol)  # among the newest: remembered
        assert counts["decompose_coords"] == 3000
        model.spectral_form(elements[0], tol)  # the oldest were dropped
        assert counts["decompose_coords"] == 3001
        assert len(memo) == MEMO_ENTRIES


def test_remembered_eigenvalues_are_read_only(any_model, tol):
    a = random_element(any_model, 9)
    with remembering_spectra():
        eigs = any_model.eigenvalues(a, tol)
        assert not eigs.flags.writeable
        with pytest.raises(ValueError):
            eigs[0] = 0.0
        assert any_model.eigenvalues(a, tol) is eigs
    assert not any_model.eigenvalues(a, tol).flags.writeable


def test_a_spectrum_outside_the_doubles_raises_on_every_call(monkeypatch, tol):
    # spin:2 at (1e308, 1e308, 1e308) has top eigenvalue about 2.4e308
    model = get_model("spin", 2)
    counts = _count_kernel(monkeypatch, model)
    a = model.element([1e308, 1e308, 1e308])
    with remembering_spectra():
        for calls in (1, 2, 3):
            with pytest.raises(ValueError, match="outside the range of a double"):
                model.spectral_form(a, tol)
            assert counts["decompose_coords"] == calls


def test_a_failing_make_is_not_remembered():
    calls = []

    def make():
        calls.append(None)
        raise RuntimeError("no value")

    with remembering_spectra():
        for _ in range(2):
            with pytest.raises(RuntimeError):
                remembered("key", make)
    assert len(calls) == 2


def test_blocks_do_not_share_a_memo():
    with remembering_spectra():
        assert remembered("key", lambda: 1) == 1
        with remembering_spectra():
            assert remembered("key", lambda: 2) == 2
        assert remembered("key", lambda: 3) == 1
    with remembering_spectra():
        assert remembered("key", lambda: 4) == 4


# ---------------------------------------------------------------------------
# trial_rng draws what default_rng of the trial's seed sequence draws
# ---------------------------------------------------------------------------

RNG_SEEDS = [0, 1, 2312, 2**31 - 1, 2**63 + 5]
RNG_TRIALS = [0, 1, 499, 10**6]


def _draws(rng):
    return (rng.normal(size=64), rng.uniform(size=64), rng.integers(-7, 2**40, size=64))


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_trial_rng_draws_the_seed_sequence_stream(seed):
    for trial in RNG_TRIALS:
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        want = _draws(np.random.default_rng(sequence))
        outside = _draws(trial_rng(seed, trial))
        with remembering_spectra():
            first = _draws(trial_rng(seed, trial))
            again = _draws(trial_rng(seed, trial))
        for got in (outside, first, again):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        words = _SeedWords(seed, trial).generate_state(4, np.uint64)
        np.testing.assert_array_equal(words, sequence.generate_state(4, np.uint64))


def test_seed_words_refuse_another_shape():
    words = _SeedWords(3, 4)
    assert words.generate_state(4, "uint64").shape == (4,)
    for n_words, dtype in ((8, np.uint64), (2, np.uint64), (4, np.uint32), (4, np.int64)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        words.generate_state(4)  # the default dtype of a seed sequence is uint32


# ---------------------------------------------------------------------------
# the memo changes no report
# ---------------------------------------------------------------------------


def _checks_json(checks):
    return dump_canonical_json([c.to_json() for c in sorted(checks, key=lambda c: c.name)])


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_run_suite_reports_what_the_plain_suites_report(kind, n, p, tol):
    model = get_model(kind, n, p)
    for seed in (0, 3):
        direct = [check for suite in SUITES.values() for check in suite(model, seed, 8, tol)]
        report = run_suite(model, "all", seed, 8, tol)
        assert _checks_json(report.checks) == _checks_json(direct)


def test_concurrent_runs_keep_their_memos_apart(tol):
    # a ContextVar gives every thread its own memo, even on one shared model
    specs = [("sym", 4, None), ("classical", 4, None)]
    serial = {spec: _checks_json(run_suite(get_model(*spec), "all", 2, 8, tol).checks)
              for spec in specs}
    barrier = threading.Barrier(4, timeout=60)
    got, idents, errors = [], [], []

    def worker(spec):
        try:
            with remembering_spectra():
                barrier.wait()
                idents.append(remembered("owner", threading.get_ident))
                barrier.wait()
            got.append((spec, _checks_json(run_suite(get_model(*spec), "all", 2, 8, tol).checks)))
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(specs[k % 2],)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(idents) == sorted(thread.ident for thread in threads)
    assert len(got) == 4
    for spec, checks in got:
        assert checks == serial[spec]


# ---------------------------------------------------------------------------
# kernel-count guard: a run decomposes each spectrum once
# ---------------------------------------------------------------------------

# decompose_coords calls of one `verify --suite all --seed 1` run with the
# memo and every suite batched; with the axioms and selfdual suites per
# element they were 58 and 63, with the batched spectral suite alone 119 and
# 169, with the memo alone 169 and 319, with neither 246 and 697
DECOMPOSITIONS = {("sym:4", 8): 28, ("classical:4", 24): 18}


@pytest.mark.parametrize("spec,trials", list(DECOMPOSITIONS))
def test_a_run_decomposes_each_spectrum_once(monkeypatch, capsys, spec, trials):
    kind, n = spec.split(":")
    counts = _count_kernel(monkeypatch, get_model(kind, int(n)))
    code = main(["verify", spec, "--suite", "all", "--seed", "1", "--trials", str(trials)])
    capsys.readouterr()
    assert code == 0
    assert counts["decompose_coords"] <= DECOMPOSITIONS[spec, trials]


def _batch_calls_by_trials(monkeypatch, model, suite, tol):
    """The calls ``suite`` makes to each batch kernel at trials 1, 8, 101
    and 250."""
    batch = {"decompose_batch": 0, "eigenvalues_batch": 0}
    for name in batch:
        kernel = getattr(model, name)

        def counted(stack, tol, kernel=kernel, name=name):
            batch[name] += 1
            return kernel(stack, tol)

        monkeypatch.setattr(model, name, counted)
    seen = []
    for trials in (1, 8, 101, 250):
        suite(model, 3, trials, tol)
        seen.append(dict(batch))
        batch.update(dict.fromkeys(batch, 0))
    return seen


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_the_spectral_suite_calls_the_batch_kernels_a_fixed_number_of_times(
        monkeypatch, kind, n, p, tol):
    model = get_model(kind, n, p)
    counts = _count_kernel(monkeypatch, model)
    seen = _batch_calls_by_trials(monkeypatch, model, spectral_suite, tol)
    assert all(seen[0].values()) and seen == [seen[0]] * len(seen)
    # no sample goes through the per-element kernels
    assert counts == {"decompose_coords": 0, "eigenvalues_coords": 0}


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
@pytest.mark.parametrize("suite", [tp_suite, logic_suite], ids=["tp", "logic"])
def test_the_tp_and_logic_suites_call_the_batch_kernels_a_fixed_number_of_times(
        monkeypatch, suite, kind, n, p, tol):
    model = get_model(kind, n, p)
    seen = _batch_calls_by_trials(monkeypatch, model, suite, tol)
    assert all(seen[0].values()) and seen == [seen[0]] * len(seen)


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_the_axioms_suite_calls_the_batch_kernels_a_fixed_number_of_times(
        monkeypatch, kind, n, p, tol):
    model = get_model(kind, n, p)
    seen = _batch_calls_by_trials(monkeypatch, model, axioms_suite, tol)
    assert all(seen[0].values()) and seen == [seen[0]] * len(seen)


# a model without a symmetric transition probability skips the suite
@pytest.mark.parametrize("kind,n,p", SYMMETRIC_MODEL_SPECS)
def test_the_selfdual_suite_calls_the_batch_kernels_a_fixed_number_of_times(
        monkeypatch, kind, n, p, tol):
    model = get_model(kind, n, p)
    seen = _batch_calls_by_trials(monkeypatch, model, selfdual_suite, tol)
    assert all(seen[0].values()) and seen == [seen[0]] * len(seen)

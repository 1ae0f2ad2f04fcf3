"""Kernel calls: what reaches the per-element and batch spectral kernels.

A per-element spectrum is never cached: every ``spectral_form`` and
``eigenvalues`` call reaches its own kernel, and the capacity search makes
one batch decomposition per step.  Within one ``verify`` run the trial
samples that several suites replay are drawn and decomposed once, in the
run's ``DrawRecord``: the rows a run passes to ``decompose_batch`` are
bounded below, so a suite that decomposes a shared sample again shows.
``spectral.trial_rng`` caches the hashed seed words of recent trials, and it
draws what ``default_rng`` of the trial's seed sequence draws; its named
streams draw what that generator jumped draws, and row k of each record
stage is the first draw of its stream of trial k, and in a run only the
verifiers whose stream goes on past that draw build a stream-``""``
generator of their own; the public atom verifiers, given a plain seed,
build one only in their own record.
``run_suite`` reports what the plain suites report, each suite run alone,
across the trial caps of the shared samples and from any number of threads.
The pure-state cloud and the self-duality report's witness families are
drawn in a fixed number of sampler calls.
"""

import collections
import sys
import threading

import numpy as np
import pytest

from conftest import ALL_MODEL_SPECS, SYMMETRIC_MODEL_SPECS, random_projection
from jordantp import get_model, random_element, selfdual, spectral, suites
from jordantp.cli import main
from jordantp.elements import Tolerance
from jordantp.logic import atomic_decomposition, information_capacity_empirical
from jordantp.reports import dump_canonical_json
from jordantp.selfdual import GeneratorSelfDualCone, SpectralSelfDualCone
from jordantp.spectral import (
    STREAMS,
    DrawRecord,
    _random_element,
    _SeedWords,
    _seed_words,
    trial_rng,
    trial_rngs,
)
from jordantp.suites import (
    SUITES,
    axioms_suite,
    logic_suite,
    run_suite,
    self_duality_report,
    selfdual_suite,
    spectral_suite,
    tp_suite,
    verify_atom_state_uniqueness,
    verify_certainty_order,
    verify_pure_state_sampling,
    verify_unity_resolution,
)
from test_selfdual import rotated_orthant


def _count_kernel(monkeypatch, model):
    """Count the calls that reach each kernel entry point of ``model``."""
    counts = {"decompose_coords": 0, "eigenvalues_coords": 0}
    for name in counts:
        kernel = getattr(model, name)

        def counted(coords, tol, kernel=kernel, name=name):
            counts[name] += 1
            return kernel(coords, tol)

        monkeypatch.setitem(vars(model), name, counted)
    return counts


def test_an_undone_kernel_count_leaves_the_model_as_it_was(tol):
    model = get_model("classical", 4)
    with pytest.MonkeyPatch.context() as patch:
        counts = _count_kernel(patch, model)
        model.spectral_form(model.order_unit(), tol)
    assert counts == {"decompose_coords": 1, "eigenvalues_coords": 0}
    assert not {"decompose_coords", "eigenvalues_coords"} & set(vars(model))


def test_every_call_reaches_its_own_kernel(monkeypatch, any_model, tol):
    counts = _count_kernel(monkeypatch, any_model)
    a = random_element(any_model, 8)
    for _ in range(3):
        any_model.spectral_form(a, tol)
        any_model.eigenvalues(a, tol)
        any_model.eigenvalues(a.coords, tol)
    assert counts == {"decompose_coords": 3, "eigenvalues_coords": 6}


def test_each_spectral_path_reaches_only_its_own_kernel(monkeypatch, any_model, tol):
    counts = _count_kernel(monkeypatch, any_model)
    a = random_element(any_model, 6)
    form = any_model.spectral_form(a, tol)
    assert counts == {"decompose_coords": 1, "eigenvalues_coords": 0}
    eigs = any_model.eigenvalues(a, tol)
    assert counts == {"decompose_coords": 1, "eigenvalues_coords": 1}
    np.testing.assert_allclose(np.sort(eigs), np.sort(form.eigenvalues),
                               atol=tol.eig_cluster)


def test_atomic_decomposition_is_one_logic_test_and_one_decomposition(
        monkeypatch, any_model, tol):
    rng = np.random.default_rng(4)
    atom = any_model.element(any_model.atom_coords(any_model.random_atom_param(rng)))
    counts = _count_kernel(monkeypatch, any_model)
    for p, size in ((any_model.order_unit(), any_model.info_capacity), (atom, 1)):
        before = dict(counts)
        atoms = atomic_decomposition(any_model, p, tol)
        assert len(atoms) == size
        assert counts["decompose_coords"] - before["decompose_coords"] == 1
        assert counts["eigenvalues_coords"] - before["eigenvalues_coords"] == 1


def test_the_capacity_search_decomposes_once_per_step(monkeypatch, any_model, tol):
    # every restart starts from one atom and grows by one atom per step, so
    # the search ends at the step where the largest family leaves no rest
    counts = _count_kernel(monkeypatch, any_model)
    calls = []
    kernel = any_model.decompose_batch

    def counted(stack, tol):
        calls.append(len(stack))
        return kernel(stack, tol)

    monkeypatch.setitem(vars(any_model), "decompose_batch", counted)
    capacity = information_capacity_empirical(any_model, 5, 6, tol)
    assert capacity == any_model.info_capacity
    assert len(calls) == capacity
    assert calls[0] == 6 and calls == sorted(calls, reverse=True)
    assert counts == {"decompose_coords": 0, "eigenvalues_coords": 0}


def test_degenerate_eigenspaces_take_one_basis_pass_per_stack(monkeypatch, tol):
    # every row is degenerate: projections of rank 1 and 3 have one cluster
    # of rank 3, those of rank 2 two clusters of rank 2, the unit one of rank
    # 4; one sweep resolves all 41 of them
    from jordantp.backends import matrices

    model = get_model("sym", 4)
    rng = np.random.default_rng(11)
    stack = np.array([random_projection(model, rank, rng).coords
                      for _ in range(10) for rank in (1, 2, 3)]
                     + [model.order_unit_coords()])
    passes = []
    bases = matrices._eigenspace_bases

    def counted(projectors, ranks):
        passes.append((projectors.shape, sorted(collections.Counter(ranks.tolist()).items())))
        return bases(projectors, ranks)

    monkeypatch.setattr(matrices, "_eigenspace_bases", counted)
    model.decompose_batch(stack, tol)
    assert passes == [((41, 4, 4), [(2, 20), (3, 20), (4, 1)])]


def test_eigenvalues_are_read_only(any_model, tol):
    a = random_element(any_model, 9)
    for eigs in (any_model.eigenvalues(a, tol), any_model.eigenvalues(a.coords, tol)):
        assert not eigs.flags.writeable
        with pytest.raises(ValueError):
            eigs[0] = 0.0


def test_a_spectrum_outside_the_doubles_raises_on_every_call(monkeypatch, tol):
    # spin:2 at (1e308, 1e308, 1e308) has top eigenvalue about 2.4e308
    model = get_model("spin", 2)
    counts = _count_kernel(monkeypatch, model)
    a = model.element([1e308, 1e308, 1e308])
    for calls in (1, 2, 3):
        with pytest.raises(ValueError, match="outside the range of a double"):
            model.spectral_form(a, tol)
        assert counts["decompose_coords"] == calls


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
        _seed_words.cache_clear()
        first = _draws(trial_rng(seed, trial))  # hashes the seed words
        again = _draws(trial_rng(seed, trial))  # reuses them
        for got in (first, again, _draws(trial_rng(seed, trial, ""))):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        words = _SeedWords(seed, trial).generate_state(4, np.uint64)
        np.testing.assert_array_equal(words, sequence.generate_state(4, np.uint64))


def test_seed_words_are_cached_for_the_latest_trials():
    _seed_words.cache_clear()
    for trial in range(1500):
        trial_rng(7, trial)
    info = _seed_words.cache_info()
    assert info.maxsize == 1024 and info.currsize == 1024 and info.hits == 0
    trial_rng(7, 1499)  # among the latest: reused
    assert _seed_words.cache_info().hits == 1
    trial_rng(7, 0)  # the oldest were dropped
    assert _seed_words.cache_info().misses == 1501


def test_seed_words_refuse_another_shape():
    words = _SeedWords(3, 4)
    assert words.generate_state(4, "uint64").shape == (4,)
    for n_words, dtype in ((8, np.uint64), (2, np.uint64), (4, np.uint32), (4, np.int64)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        words.generate_state(4)  # the default dtype of a seed sequence is uint32


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_each_named_stream_draws_what_the_jumped_generator_draws(seed):
    for trial in RNG_TRIALS:
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        lows = set()
        for index, name in enumerate(STREAMS):
            jumped = np.random.PCG64(sequence).jumped(index)
            rng = trial_rng(seed, trial, name)
            # streams apart by a multiple of 2^64 would share their low state bits
            lows.add(rng.bit_generator.state["state"]["state"] % 2**64)
            for got, want in zip(_draws(rng), _draws(np.random.Generator(jumped))):
                assert got.tobytes() == want.tobytes()
        assert len(lows) == len(STREAMS)


def test_trial_rngs_take_a_count_or_the_trial_indices():
    for trials, rows in ((5, range(5)), (range(0, 23, 5), range(0, 23, 5))):
        for name in STREAMS:
            got = [_draws(rng) for rng in trial_rngs(3, trials, name)]
            want = [_draws(trial_rng(3, k, name)) for k in rows]
            assert [[g.tobytes() for g in row] for row in got] == [
                [w.tobytes() for w in row] for row in want]
    for trials in (0, -2, range(4, 4)):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            trial_rngs(3, trials, "junk")


# stage -> its stream and its one-row draw
STAGE_DRAWS = {
    "a": ("", lambda model, rng: _random_element(model, [rng])[0]),
    "b": ("b", lambda model, rng: _random_element(model, [rng])[0]),
    "c": ("c", lambda model, rng: _random_element(model, [rng])[0]),
    "atom": ("", lambda model, rng: model.random_atom_param_batch([rng])[0]),
    "frame": ("", lambda model, rng: model.random_frame_params_batch([rng])[0]),
    "extra": ("extra", lambda model, rng: model.random_atom_param_batch([rng])[0]),
}


@pytest.mark.parametrize("kind,n,p", [("sym", 3, None), ("classical", 4, None),
                                      ("spin", 3, None), ("lpq", 2, 3.0)])
def test_each_record_stage_row_is_the_first_draw_of_its_stream(kind, n, p, tol):
    # the rows grow across the caps of the shared samples: 100, 120 and 200
    model = get_model(kind, n, p)
    record = DrawRecord(4, model, tol)
    for stage, (stream, draw) in STAGE_DRAWS.items():
        for rows in (90, 130, 7, 210):
            stack = record.rows(stage, rows)
            assert len(stack) == rows and not stack.flags.writeable
        for k, row in enumerate(stack):
            one = draw(model, trial_rng(4, k, stream))
            assert row.dtype == one.dtype and row.tobytes() == one.tobytes()


# who builds a generator on stream "" in a verify run: the record's stages
# (``DrawRecord._extend``), the verifiers whose stream goes on past its first
# draw (tp, logic, strongness, the self-duality report and the pure-state
# cloud), and ``recover_order_unit``, which draws on a cone, not on the
# record's model.  Every other first draw is a row the record holds
FIRST_DRAWERS = frozenset({"_extend", "tp_suite", "logic_suite", "verify_strong_state_space",
                           "self_duality_report", "verify_pure_state_sampling",
                           "recover_order_unit"})


@pytest.mark.parametrize("kind,n,p", [("sym", 3, None), ("lpq", 2, 3.0)])
def test_a_run_draws_a_first_sample_again_only_where_its_stream_goes_on(
        monkeypatch, kind, n, p, tol):
    built = spectral.trial_rng
    callers = {}

    def counted(seed, trial, stream=""):
        if not stream:
            frame = sys._getframe(1)
            while frame.f_code.co_name in ("trial_rngs", "<listcomp>"):
                frame = frame.f_back
            callers[frame.f_code.co_name] = callers.get(frame.f_code.co_name, 0) + 1
        return built(seed, trial, stream)

    for module in (spectral, suites, selfdual):
        monkeypatch.setattr(module, "trial_rng", counted)
    run_suite(get_model(kind, n, p), "all", 1, 24, tol)
    assert "_extend" in callers and callers.keys() <= FIRST_DRAWERS, callers


@pytest.mark.parametrize("make", [lambda: get_model("sym", 3), lambda: get_model("lpq", 2, 3.0),
                                  lambda: SpectralSelfDualCone(get_model("sym", 3)),
                                  lambda: rotated_orthant(3)],
                         ids=["sym:3", "lpq:2:3", "spectral sym:3", "rotated 3-orthant"])
def test_the_public_atom_verifiers_draw_first_samples_only_as_record_rows(monkeypatch, make, tol):
    # given a plain seed, each reads its first atoms, frames and further atoms
    # from its own record, on a model as on a cone
    space = make()
    built = spectral.trial_rng
    callers = {}

    def counted(seed, trial, stream=""):
        if not stream:
            frame = sys._getframe(1)
            while frame.f_code.co_name in ("trial_rngs", "<listcomp>"):
                frame = frame.f_back
            callers[frame.f_code.co_name] = callers.get(frame.f_code.co_name, 0) + 1
        return built(seed, trial, stream)

    for module in (spectral, suites, selfdual):
        monkeypatch.setattr(module, "trial_rng", counted)
    for verifier in (verify_atom_state_uniqueness, verify_certainty_order,
                     verify_unity_resolution):
        callers.clear()
        verifier(space, 5, 24, tol)
        assert callers.keys() == {"_extend"}, (verifier.__name__, callers)


# ---------------------------------------------------------------------------
# run_suite reports what the plain suites report
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


@pytest.mark.parametrize("kind,n,p", [("sym", 4, None), ("classical", 4, None), ("lpq", 2, 3.0)])
def test_run_suite_reports_what_the_plain_suites_report_across_the_caps(kind, n, p, tol):
    # a run's record grows past the caps of its shared samples: b and c at
    # 100 trials, the Moreau sweep at 120 and the inner product at 200
    model = get_model(kind, n, p)
    for trials in (1, 101, 130, 250):
        direct = [check for suite in SUITES.values() for check in suite(model, 1, trials, tol)]
        report = run_suite(model, "all", 1, trials, tol)
        assert _checks_json(report.checks) == _checks_json(direct)


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_each_suite_alone_reports_what_it_reports_inside_all(kind, n, p, tol):
    model = get_model(kind, n, p)
    alone = [check for name in SUITES for check in run_suite(model, name, 2, 24, tol).checks]
    assert _checks_json(run_suite(model, "all", 2, 24, tol).checks) == _checks_json(alone)


# the rows a verify run passes to decompose_batch; a bound may only fall
DECOMPOSED_ROWS = {("sym:4", 8): 188, ("classical:4", 24): 527}


@pytest.mark.parametrize("spec,trials", list(DECOMPOSED_ROWS))
def test_a_verify_run_decomposes_each_shared_sample_once(monkeypatch, capsys, spec, trials):
    kind, n = spec.split(":")
    model = get_model(kind, int(n))
    rows = []
    kernel = model.decompose_batch

    def counted(stack, tol):
        rows.append(len(stack))
        return kernel(stack, tol)

    monkeypatch.setitem(vars(model), "decompose_batch", counted)
    assert main(["verify", spec, "--suite", "all", "--trials", str(trials), "--seed", "1"]) == 0
    capsys.readouterr()
    assert sum(rows) <= DECOMPOSED_ROWS[spec, trials]


def test_concurrent_runs_report_what_serial_runs_report(tol):
    # four threads on two shared models, switching as often as they can
    specs = [("sym", 4, None), ("classical", 4, None)]
    serial = {spec: _checks_json(run_suite(get_model(*spec), "all", 2, 8, tol).checks)
              for spec in specs}
    barrier = threading.Barrier(4, timeout=60)
    got, errors = [], []

    def worker(spec):
        try:
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
    assert len(got) == 4
    for spec, checks in got:
        assert checks == serial[spec]


# ---------------------------------------------------------------------------
# kernel-count guard: a run decomposes each spectrum once
# ---------------------------------------------------------------------------

# decompose_coords and eigenvalues_coords calls of one `verify --suite all
# --seed 1` run with every suite and the capacity search batched.  With a
# per-run spectrum memo and the capacity search per element they were 28 and
# 18 decompositions and 43 and 31 eigenvalue calls; with the axioms and
# selfdual suites per element too, 58 and 63 decompositions, with the batched
# spectral suite alone 119 and 169, with the memo alone 169 and 319, with
# neither 246 and 697; with the peel check's Moreau splits per element, 4 and 7
DECOMPOSITIONS = {("sym:4", 8): 2, ("classical:4", 24): 2}
EIGENVALUE_CALLS = {("sym:4", 8): 11, ("classical:4", 24): 27}


@pytest.mark.parametrize("spec,trials", list(DECOMPOSITIONS))
def test_a_run_decomposes_each_spectrum_once(monkeypatch, capsys, spec, trials):
    kind, n = spec.split(":")
    counts = _count_kernel(monkeypatch, get_model(kind, int(n)))
    code = main(["verify", spec, "--suite", "all", "--seed", "1", "--trials", str(trials)])
    capsys.readouterr()
    assert code == 0
    assert counts["decompose_coords"] <= DECOMPOSITIONS[spec, trials]
    assert counts["eigenvalues_coords"] <= EIGENVALUE_CALLS[spec, trials]


def _batch_calls_by_trials(monkeypatch, model, suite, tol):
    """The calls ``suite`` makes to each batch kernel at trials 1, 8, 101
    and 250."""
    batch = {"decompose_batch": 0, "eigenvalues_batch": 0}
    for name in batch:
        kernel = getattr(model, name)

        def counted(stack, tol, kernel=kernel, name=name):
            batch[name] += 1
            return kernel(stack, tol)

        monkeypatch.setitem(vars(model), name, counted)
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


@pytest.mark.parametrize("kind,n,p", SYMMETRIC_MODEL_SPECS)
def test_the_selfdual_suite_peels_with_a_fixed_number_of_split_calls(monkeypatch, kind, n, p, tol):
    # three stacked peels (the complements, the Moreau parts and the effects
    # with the plus parts), each one split call per step; peeling one element
    # at a time made about 3 * capacity calls per fifth trial
    model = get_model(kind, n, p)
    calls = []
    kernel = model.split_orthogonal_batch

    def counted(stack, tol):
        calls.append(len(stack))
        return kernel(stack, tol)

    monkeypatch.setitem(vars(model), "split_orthogonal_batch", counted)
    for trials in (1, 8, 101, 250):
        calls.clear()
        selfdual_suite(model, 3, trials, tol)
        assert 0 < len(calls) <= 3 * (model.info_capacity + 1), trials


# ---------------------------------------------------------------------------
# sampling batches: the pure-state cloud and the self-duality witnesses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,n,p", ALL_MODEL_SPECS)
def test_the_pure_state_cloud_draws_one_atom_batch_per_rejection_round(
        monkeypatch, kind, n, p):
    # one call for the cloud's first atoms, one per rejection round on the
    # mixtures still pending, one for the record's atom rows 0 to 8, whose
    # rows 1 to 8 are the eight pure states: at trials 64 as at trials 8,
    # however many mixtures the cloud holds; drawing the mixtures one at a
    # time made at least 2m + 1 calls
    model = get_model(kind, n, p)
    draws, rounds = [], []
    sampler, transitions = model.random_atom_param_batch, model.transitions_from_params

    def counted_draws(rngs):
        draws.append(len(rngs))
        return sampler(rngs)

    def counted_transitions(first, second):
        rounds.append(len(first))
        return transitions(first, second)

    monkeypatch.setitem(vars(model), "random_atom_param_batch", counted_draws)
    monkeypatch.setitem(vars(model), "transitions_from_params", counted_transitions)
    for m in (8, 64):
        for seed in range(5):
            draws.clear()
            rounds.clear()
            verify_pure_state_sampling(model, seed, m)
            # both transition directions of a round test the same candidates
            assert rounds[::2] == rounds[1::2]
            assert draws == [m] + rounds[::2] + [9]
            assert rounds[0] == m and rounds[::2] == sorted(rounds[::2], reverse=True)


@pytest.mark.parametrize("kind,n,p", [("sym", 3, None), ("lpq", 2, 3.0)])
def test_the_pure_state_check_builds_only_trial_zeros_generator(monkeypatch, kind, n, p):
    # the cloud goes on drawing on trial 0's stream "", and the pure atoms
    # are record rows, whose generators DrawRecord._extend builds
    built = spectral.trial_rng
    callers = []

    def counted(seed, trial, stream=""):
        if not stream:
            frame = sys._getframe(1)
            while frame.f_code.co_name in ("trial_rngs", "<listcomp>"):
                frame = frame.f_back
            callers.append((frame.f_code.co_name, trial))
        return built(seed, trial, stream)

    for module in (spectral, suites):
        monkeypatch.setattr(module, "trial_rng", counted)
    verify_pure_state_sampling(get_model(kind, n, p), 3, 24)
    assert [trial for name, trial in callers if name == "verify_pure_state_sampling"] == [0]
    assert {name for name, _ in callers} == {"verify_pure_state_sampling", "_extend"}


@pytest.mark.parametrize("kind,n,p", [("sym", 3, None), ("lpq", 2, 3.0)])
def test_the_axioms_suite_draws_each_atom_row_once_at_any_tolerance(monkeypatch, kind, n, p):
    # the pure-state check reads its atoms from the suite's record, whose
    # atom rows no tolerance changes
    extend = spectral.DrawRecord._extend
    drawn = []

    def counted(record, name, lo, hi):
        if name == "atom":
            drawn.extend(range(lo, hi))
        return extend(record, name, lo, hi)

    monkeypatch.setattr(spectral.DrawRecord, "_extend", counted)
    for tol in (Tolerance(), Tolerance(check_tol=1e-8)):
        drawn.clear()
        axioms_suite(get_model(kind, n, p), 3, 4, tol)
        assert sorted(drawn) == list(range(max(drawn) + 1)), (tol, drawn)


@pytest.mark.parametrize("make", [lambda: SpectralSelfDualCone(get_model("sym", 3)),
                                  lambda: SpectralSelfDualCone(get_model("classical", 4)),
                                  lambda: GeneratorSelfDualCone(np.eye(3))],
                         ids=["spectral sym:3", "spectral classical:4", "generator orthant"])
def test_the_self_duality_report_draws_its_witness_families_in_one_call(make, tol):
    cone = make()
    calls = []
    families = cone.random_frame_params_batch

    def counted(rngs):
        calls.append(len(rngs))
        return families(rngs)

    cone.random_frame_params_batch = counted  # a fresh cone, not a cached model
    for trials in (1, 8, 101):
        calls.clear()
        self_duality_report(cone, 3, trials, tol)
        assert calls == [trials]


@pytest.mark.parametrize("kind,n,p", SYMMETRIC_MODEL_SPECS)
def test_the_self_duality_report_draws_a_b_and_c_in_three_sampler_calls(
        monkeypatch, kind, n, p, tol):
    # a spectral cone draws a, b and c through the package's one element
    # sampler, one stack each: as many calls at 200 trials as at 8, where
    # drawing one element at a time made three calls per trial
    cone = SpectralSelfDualCone(get_model(kind, n, p))
    calls = []
    sampler = spectral._random_element

    def counted(model, rngs, shape="any"):
        calls.append((len(rngs), shape))
        return sampler(model, rngs, shape)

    for module in (spectral, selfdual, suites):  # every binding, as the tracer rebinds it
        monkeypatch.setattr(module, "_random_element", counted)
    for trials in (8, 200):
        calls.clear()
        self_duality_report(cone, 3, trials, tol)
        assert calls == [(trials, "positive"), (trials, "positive"), (trials, "any")]

"""Monte Carlo harness: generators, seeding, tables, MSPE estimation."""

import concurrent.futures
import dataclasses
import math
import pickle
import re
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.signal import lfilter as scipy_lfilter

import arstep as a
from arstep import _kernels, simulation
from oracles import lyapunov_autocovariances


def test_generate_is_deterministic_per_replication_seed():
    dgp = a.DGPS["I"]
    first = a.generate(dgp, 200, a.replication_seed(5, dgp, 200, 3))
    again = a.generate(dgp, 200, a.replication_seed(5, dgp, 200, 3))
    other = a.generate(dgp, 200, a.replication_seed(5, dgp, 200, 4))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_replication_seed_varies_in_every_coordinate():
    dgp = a.DGPS["II"]
    base = a.replication_seed(9, dgp, 100, 0)
    keys = {base.spawn_key,
            a.replication_seed(9, dgp, 100, 1).spawn_key,
            a.replication_seed(9, dgp, 101, 0).spawn_key,
            a.replication_seed(9, a.DGPS["III"], 100, 0).spawn_key}
    assert len(keys) == 4
    assert a.replication_seed(9, "custom-id", 100, 0).spawn_key != base.spawn_key


def test_generate_matches_hand_recursion():
    dgp = a.DGPS["IV"]
    series, eps = a.generate(dgp, 50, seed=123, return_innovations=True)
    assert len(series) == len(eps) == 50
    hand = np.zeros(50)
    for t in range(50):
        acc = eps[t]
        for i, coef in enumerate(dgp.levels, start=1):
            if t - i >= 0:
                acc += coef * hand[t - i]
        hand[t] = acc
    np.testing.assert_allclose(series, hand, rtol=1e-12, atol=1e-12)


def test_generate_impulse_exposes_impulse_response():
    quiet = a.DgpSpec("quiet", (1.5, -0.5), True, 2, 2, sigma2=0.0)
    series = a.generate(quiet, 30, seed=0, impulse=3.0)
    want = 3.0 * a.impulse_response(np.array(quiet.levels), 29)
    np.testing.assert_allclose(series, want, rtol=1e-12)
    walk = a.DgpSpec("walk", (1.0,), True, 1, 1, sigma2=0.0)
    np.testing.assert_array_equal(a.generate(walk, 10, seed=0, impulse=2.0),
                                  np.full(10, 2.0))


def test_generate_burn_in_is_a_shifted_window():
    dgp = a.DGPS["III"]
    with_burn = a.generate(dgp, 40, seed=77, burn_in=25)
    full = a.generate(dgp, 65, seed=77)
    np.testing.assert_array_equal(with_burn, full[25:])
    # The impulse lands on the first *returned* innovation.
    quiet = a.DgpSpec("quiet", (1.0,), True, 1, 1, sigma2=0.0)
    kicked = a.generate(quiet, 5, seed=0, burn_in=10, impulse=4.0)
    np.testing.assert_array_equal(kicked, np.full(5, 4.0))


def _same_bits(got, want):
    """Equal as float64 bit patterns, so the sign of zero counts."""
    return (got.dtype == want.dtype == np.float64
            and got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def _filters_agree(a_coeffs, x, axis=-1):
    return _same_bits(_kernels.lfilter(a_coeffs, x, axis=axis),
                      scipy_lfilter([1.0], a_coeffs, x, axis=axis))


def test_filter_kernel_is_scipys_lfilter_bit_for_bit():
    rng = np.random.default_rng(8)
    for dgp in a.DGPS.values():
        filt = np.concatenate(([1.0], -np.asarray(dgp.levels)))
        for n in (1, 300, 2000):
            assert _filters_agree(filt, rng.standard_normal(n) * 5.0)
        # A stack filtered row by row, as estimate_mspe filters its chunks.
        assert _filters_agree(filt, rng.standard_normal((64, 310)), axis=1)
    # sigma2 = 0: the burn-in innovations are signed zeros, then a pulse.
    dgp = a.DgpSpec("quiet", a.DGPS["VII"].levels, True, 3, 10, sigma2=0.0)
    filt = np.concatenate(([1.0], -np.asarray(dgp.levels)))
    eps = np.random.default_rng(5).standard_normal(60) * 0.0
    eps[20] += 1.0
    assert _filters_agree(filt, eps)
    assert _same_bits(a.generate(dgp, 40, seed=5, burn_in=20, impulse=1.0),
                      scipy_lfilter([1.0], filt, eps)[20:])


def test_filter_kernel_is_the_compiled_recursion_and_falls_back(monkeypatch):
    assert _kernels.load_filter() is \
        sys.modules["scipy.signal._sigtools"]._linear_filter
    # Where the compiled module cannot be located, scipy.signal.lfilter
    # itself is loaded, with the same results.
    dgp = a.DGPS["IX"]
    seed = a.replication_seed(7, dgp, 200, 3)
    monkeypatch.setattr(_kernels, "_sigtools", lambda: None)
    _kernels.load_filter.cache_clear()
    try:
        x = np.random.default_rng(2).standard_normal((3, 200))
        assert _filters_agree([1.0, -0.3, 0.8], x, axis=1)
        assert _kernels.load_filter() is scipy_lfilter
        with_fallback = a.generate(dgp, 200, seed)
    finally:
        monkeypatch.undo()
        _kernels.load_filter.cache_clear()
    assert _same_bits(with_fallback, a.generate(dgp, 200, seed))


def test_generate_uniform_noise_bounds_and_variance():
    dgp = a.DGPS["I"]
    _, eps = a.generate(dgp, 200000, seed=3, noise="uniform",
                        return_innovations=True)
    half = np.sqrt(3.0 * dgp.sigma2)
    assert np.max(np.abs(eps)) <= half
    assert eps.var() == pytest.approx(dgp.sigma2, rel=0.02)
    assert eps.mean() == pytest.approx(0.0, abs=0.1)
    with pytest.raises(ValueError):
        a.generate(dgp, 10, seed=0, noise="laplace")
    with pytest.raises(ValueError):
        a.generate(dgp, 0, seed=0)


def test_differenced_series_matches_stationary_autocovariance():
    # After differencing, a unit-root generator leaves its stationary
    # part, whose variance is that of the oracle's Lyapunov solution.
    dgp = a.DGPS["III"]
    model = a.model_for(dgp)
    gamma = lyapunov_autocovariances(model.stationary, model.sigma2,
                                     len(model.stationary))
    series = a.generate(dgp, 100000, seed=0, burn_in=500)
    assert np.diff(series).var() == pytest.approx(gamma[0], rel=0.03)


def test_noise_scale_equivariance_for_power_of_two_ratios():
    dgp = a.DGPS["III"]
    loud = a.DgpSpec("III-loud", dgp.levels, True, dgp.horizon,
                     dgp.max_order, sigma2=16.0 * dgp.sigma2)
    base = a.generate(dgp, 300, a.replication_seed(13, dgp, 300, 0))
    scaled = a.generate(loud, 300, a.replication_seed(13, dgp, 300, 0))
    np.testing.assert_array_equal(scaled, 4.0 * base)

    spec = a.PredictorSpec(2, a.PLUG_IN, 2)
    est = a.estimate_mspe(dgp, spec, 200, 500, seed=13)
    est_loud = a.estimate_mspe(loud, spec, 200, 500, seed=13)
    assert est_loud.mspe == pytest.approx(16.0 * est.mspe, rel=1e-10)
    assert est_loud.scaled_excess == pytest.approx(16.0 * est.scaled_excess,
                                                   rel=1e-10)
    assert est_loud.sigma_h2 == 16.0 * est.sigma_h2


def test_frequency_counts_and_failures_partition_replications():
    table = a.run_frequency_experiment(["I"], [150], ("I", "B"), R=6,
                                       seed=21)
    assert table.replications == 6
    for label in ("I", "B"):
        cell = table.counts("I", 150, label)
        assert sum(cell.values()) + table.failures[("I", 150, label)] == 6
        assert sum(table.failure_reasons[("I", 150, label)].values()) == \
            table.failures[("I", 150, label)]
        for (k, method), count in cell.items():
            assert 1 <= k <= a.DGPS["I"].max_order
            assert method in (a.PLUG_IN, a.DIRECT)
            assert table.frequency("I", 150, label, k, method) == count / 6


def test_frequency_experiment_parallel_equals_serial():
    serial = a.run_frequency_experiment(["I"], [150], ("I", "B"), R=6,
                                        seed=21)
    parallel = a.run_frequency_experiment(["I"], [150], ("I", "B"), R=6,
                                          seed=21, workers=2)
    assert serial.rows == parallel.rows
    assert serial.failures == parallel.failures
    assert serial.failure_reasons == parallel.failure_reasons
    # Failed replications carry the same reasons from the pool.
    flat = a.DgpSpec("flat", (1.0,), True, 2, 3, sigma2=0.0)
    serial, parallel = (a.run_frequency_experiment([flat], [60], ("I", "B"),
                                                   R=4, workers=workers)
                        for workers in (None, 2))
    assert serial.failure_reasons == parallel.failure_reasons == {
        ("flat", 60, "I"): {"SeriesTooShort": 4},
        ("flat", 60, "B"): {"SingularDesign": 4}}


def test_frequency_experiment_records_failures():
    # sigma2 = 0 with no impulse keeps the series identically zero, so
    # every design matrix is singular and every replication fails.
    flat = a.DgpSpec("flat", (1.0,), True, 2, 3, sigma2=0.0)
    table = a.run_frequency_experiment([flat], [60], ("B",), R=4, seed=0)
    key = ("flat", 60, "B")
    assert table.failures[key] == 4
    assert table.failure_reasons[key] == {"SingularDesign": 4}
    assert "failures=4  SingularDesign=4" in table.format_text()
    assert table.rows[key] == {}
    records = table.to_records()
    assert records == [{"dgp": "flat", "n": 60, "procedure": "B",
                        "order": "", "method": "failed", "count": 4,
                        "frequency": 1.0}]


def _nan_direct_stage(criteria, series_index):
    """_criteria whose direct criteria of one series of a stack are NaN."""
    def patched(series, *args):
        out = criteria(series, *args)
        for per_series in out:
            if series_index < len(per_series):
                first, direct, plug, scale = per_series[series_index]
                per_series[series_index] = (
                    first, dict.fromkeys(direct, math.nan), plug, scale)
        return out
    return patched


def test_all_nan_criteria_fail_one_replication_not_the_table(monkeypatch):
    # A stage whose every criterion is NaN raises NonFiniteCriterion; in
    # a frequency cell it fails its own replication only.
    dgp = a.DGPS["III"]
    clean = a.run_frequency_experiment([dgp], [200], ("A", "B"), R=3,
                                       seed=6)
    monkeypatch.setattr(a.simulation, "_criteria",
                        _nan_direct_stage(a.simulation._criteria, 1))
    table = a.run_frequency_experiment([dgp], [200], ("A", "B"), R=3,
                                       seed=6)
    for label in ("A", "B"):
        key = ("III", 200, label)
        assert table.failures[key] == 1
        assert table.failure_reasons[key] == {"NonFiniteCriterion": 1}
        out = a.select_by_criterion(
            a.generate(dgp, 200, a.replication_seed(6, dgp, 200, 1)),
            dgp.horizon, dgp.max_order, a.PENALTY_PRESETS[label])
        want = Counter(clean.rows[key])
        want[(out.k, out.method)] -= 1
        assert table.rows[key] == +want
    monkeypatch.setattr(a.selection, "_criteria",
                        _nan_direct_stage(a.selection._criteria, 0))
    with pytest.raises(a.NonFiniteCriterion):
        a.select_by_criterion(
            a.generate(dgp, 200, a.replication_seed(6, dgp, 200, 1)), 2, 10)


def test_frequency_tables_do_not_depend_on_a_power_of_two_scale():
    # sigma = 5 * 2^-530 scales every series of the cell by exactly
    # 2^-530, to near 1e-158, where the Grams of the series themselves
    # would be subnormal.
    tiny = a.DgpSpec("III", (0.0, 0.2, 0.8), True, 2, 10,
                     sigma2=25 * 2.0 ** -1060)
    runs = [a.run_frequency_experiment([dgp], [300], ("A", "I"), R=3, seed=2)
            for dgp in (a.DGPS["III"], tiny)]
    assert runs[0].failures == runs[1].failures == {
        ("III", 300, "A"): 0, ("III", 300, "I"): 0}
    assert runs[0].rows == runs[1].rows


@pytest.mark.blas_layout
def test_frequency_tables_do_not_depend_on_blocks_or_workers(monkeypatch):
    flat = a.DgpSpec("flat", (1.0,), True, 2, 3, sigma2=0.0)
    args = (["I", "IX", flat], [70], ("A", "B", "I"))
    runs = [a.run_frequency_experiment(*args, R=5, seed=3),
            a.run_frequency_experiment(*args, R=5, seed=3, workers=2)]
    monkeypatch.setattr(a.simulation, "_BLOCK_REPS", 1)
    runs.append(a.run_frequency_experiment(*args, R=5, seed=3))
    first, *others = [(t.rows, t.failures, t.failure_reasons) for t in runs]
    assert all(other == first for other in others)
    assert first[2][("flat", 70, "B")] == {"SingularDesign": 5}


@pytest.mark.blas_layout
def test_a_failing_replication_does_not_sink_its_block(monkeypatch):
    real = a.simulation.generate

    def generate(dgp, n, seed):
        series = real(dgp, n, seed)
        return 0.0 * series if seed.spawn_key[-1] == 2 else series

    monkeypatch.setattr(a.simulation, "generate", generate)
    table = a.run_frequency_experiment(["III"], [200], ("A", "B"), R=5,
                                       seed=4)
    dgp = a.DGPS["III"]
    for label in ("A", "B"):
        key = ("III", 200, label)
        assert table.failure_reasons[key] == {"SingularDesign": 1}
        want = Counter()
        for r in (0, 1, 3, 4):
            out = a.select_by_criterion(
                real(dgp, 200, a.replication_seed(4, dgp, 200, r)),
                dgp.horizon, dgp.max_order, a.PENALTY_PRESETS[label])
            want[(out.k, out.method)] += 1
        assert table.rows[key] == want


def test_dgp_levels_are_validated_before_simulating():
    # A spec checks itself when built, as dataclasses.replace does, so no
    # invalid spec reaches generate, estimate_mspe or a frequency table.
    with pytest.raises(a.UnstableStationaryPart):
        a.DgpSpec("Z", (1.2,), False, 2, 5)
    with pytest.raises(a.UnstableStationaryPart):
        dataclasses.replace(a.DGPS["I"], levels=(1.2,))
    with pytest.raises(a.NotUnitRoot):
        a.DgpSpec("Z", (0.5,), True, 2, 5)
    for levels in ((np.nan,), (1.0, np.nan), (np.inf, 0.5)):
        with pytest.raises(a.UnstableStationaryPart):
            a.DgpSpec("Z", levels, False, 2, 5)
        with pytest.raises(ValueError, match="NaN or infinite"):
            a.DgpSpec("Z", levels, True, 2, 5)
    # Only the levels are checked: sigma2 = 0 stays legal.
    flat = a.DgpSpec("flat", (1.0,), True, 2, 3, sigma2=0.0)
    assert not a.generate(flat, 10, 0).any()


def test_unpickled_specs_are_not_checked_again(monkeypatch):
    # A process pool's workers take the specs checked in the parent.
    specs = pickle.dumps(list(a.DGPS.values()))

    def check(spec):
        raise AssertionError("a spec was checked again")

    monkeypatch.setattr(a.DgpSpec, "__post_init__", check)
    assert pickle.loads(specs) == list(a.DGPS.values())


@pytest.mark.parametrize("levels, unit_root", [
    ((), False), ((), True), ((0.5, 0.0), False), ((1.0, 0.0), True),
    ((np.inf,), True), ((-np.inf,), True)],
    ids=["empty", "empty-unit-root", "trailing-zero",
         "trailing-zero-unit-root", "infinite-unit-root",
         "minus-infinite-unit-root"])
def test_levels_model_for_rejects_are_refused_before_simulating(
        levels, unit_root):
    # Building the spec, or replacing its levels, raises the error of
    # the model of its kind at sigma2 = 1.
    model = a.UnitRootArModel if unit_root else a.StationaryArModel
    with pytest.raises(ValueError) as want:
        model(levels)
    for build in (lambda: a.DgpSpec("Z", levels, unit_root, 2, 5),
                  lambda: dataclasses.replace(a.DGPS["I"], levels=levels,
                                              unit_root=unit_root)):
        with pytest.raises(ValueError) as got:
            build()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
def test_bad_sigma2_is_refused_before_simulating(sigma2):
    for build in (lambda: a.DgpSpec("Z", (0.5,), False, 2, 5, sigma2=sigma2),
                  lambda: dataclasses.replace(a.DGPS["III"], sigma2=sigma2)):
        with pytest.raises(ValueError, match="^sigma2 must be finite and "
                                             "nonnegative, not %r$" % sigma2):
            build()


@pytest.mark.parametrize("workers", [0, -1, -8, 2.5, 1.0, True])
def test_workers_below_one_are_refused_before_simulating(monkeypatch,
                                                          workers):
    # workers follows the integer rule of every size: a float (not even
    # 1.0) or a bool is refused as a count below 1 is.
    def no_replication(task):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(a.simulation, "_run_block", no_replication)
    with pytest.raises(ValueError, match="^workers must be an integer of at "
                       "least 1, not %s$" % re.escape(repr(workers))):
        a.run_frequency_experiment(["I"], [100], R=3, workers=workers)


def test_one_worker_runs_serially(monkeypatch):
    want = a.run_frequency_experiment(["III"], [100], R=2, seed=5)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    got = a.run_frequency_experiment(["III"], [100], R=2, seed=5, workers=1)
    assert got.rows == want.rows


@pytest.mark.parametrize("argument, value", [
    ("R", 2.5), ("R", True), ("R", 0), ("R", "3"),
    ("K", 2.5), ("K", True), ("K", 0), ("K", -1), ("K", "3"),
    ("n", 300.9), ("n", 2.5), ("n", True), ("n", 0), ("n", "300")])
def test_bad_R_or_K_is_refused_before_simulating(monkeypatch, argument,
                                                 value):
    # Every size n, as R and K, must be an integer, not a bool, of at
    # least 1: no cell runs at a truncated n.
    def no_series(*args, **kwargs):
        raise AssertionError("a series was simulated")

    monkeypatch.setattr(a.simulation, "generate", no_series)
    kwargs = {"ns": [100], "R": 3}
    kwargs.update({"ns": [100, value]} if argument == "n"
                  else {argument: value})
    with pytest.raises(ValueError, match="^%s must be an integer of at "
                                         "least 1, not " % argument):
        a.run_frequency_experiment(["I"], procedures=("I", "B"), **kwargs)


def test_frequency_experiment_validates_arguments():
    with pytest.raises(ValueError):
        a.run_frequency_experiment(["I"], [100], R=0)
    with pytest.raises(ValueError):
        a.run_frequency_experiment(["I"], [100], ("Z",), R=2)


@pytest.mark.parametrize("dgps, ns, procedures", [
    (["III"], [200, 200], ("B",)),
    (["III", "I", "III"], [200], ("B",)),
    (["III", a.DgpSpec("III", (1.5, -0.5), True, 2, 5)], [200], ("B",)),
    (["III"], [200], [("B", a.PENALTY_PRESETS["B"]),
                      ("B", a.PENALTY_PRESETS["C"])]),
    (["III"], [200], ("I", "B", "I")),
])
def test_repeated_cells_are_refused_before_simulating(monkeypatch, dgps, ns,
                                                      procedures):
    def no_replication(task):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(a.simulation, "_run_block", no_replication)
    with pytest.raises(ValueError, match="listed more than once"):
        a.run_frequency_experiment(dgps, ns, procedures, R=3)


@pytest.mark.parametrize("weight", [2.0, "B", a.PENALTY_PRESETS])
def test_procedure_weights_are_typed_before_simulating(monkeypatch, weight):
    def no_replication(task):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(a.simulation, "_run_block", no_replication)
    for procedures in ({"X": weight}, [("X", weight)]):
        with pytest.raises(ValueError, match="procedure 'X'"):
            a.run_frequency_experiment(["III"], [200], procedures, R=3)


def test_procedure_forms_give_equal_tables():
    # The flat generator fails every replication, so failed and selected
    # outcomes are both tallied.
    flat = a.DgpSpec("flat", (1.0,), True, 2, 3, sigma2=0.0)
    B = a.PENALTY_PRESETS["B"]
    tables = [a.run_frequency_experiment(["III", flat], [60, 150], form,
                                         R=5, seed=2)
              for form in (("I", "B"), {"I": None, "B": B},
                           [("I", None), ("B", B)])]
    first, *others = [(t.rows, t.failures, t.failure_reasons,
                       t.to_records(), t.format_text()) for t in tables]
    assert all(other == first for other in others)
    rows, failures, reasons = first[:3]
    assert list(rows) == [(d, n, label) for d in ("III", "flat")
                          for n in (60, 150) for label in ("I", "B")]
    for key, cell in rows.items():
        assert sum(cell.values()) + failures[key] == 5
        assert failures[key] == sum(reasons[key].values())
    assert reasons[("flat", 150, "I")] == {"SeriesTooShort": 5}
    assert reasons[("flat", 150, "B")] == {"SingularDesign": 5}
    assert sum(rows[("III", 150, "B")].values()) == 5
    # The sequential procedure alone tallies its cells as beside "B".
    alone = a.run_frequency_experiment(["III", flat], [60, 150], ("I",),
                                       R=5, seed=2)
    assert alone.rows == {key: cell for key, cell in rows.items()
                          if key[2] == "I"}
    assert alone.failure_reasons == {key: cell for key, cell in reasons.items()
                                     if key[2] == "I"}


def test_frequency_table_rendering():
    table = a.FrequencyTable(
        rows={("I", 100, "B"): {(1, a.DIRECT): 3, (2, a.PLUG_IN): 1}},
        replications=5,
        failure_reasons={("I", 100, "B"): {"SingularDesign": 1}})
    records = table.to_records()
    assert [r["count"] for r in records] == [3, 1, 1]
    assert records[-1]["method"] == "failed"
    text = table.format_text()
    assert "5 replications" in text
    assert "failures=1  SingularDesign=1" in text
    assert "k=1" in text and a.DIRECT in text


def test_estimate_mspe_random_walk_one_step():
    # For the random walk predicted at its true order, n * (MSPE -
    # sigma^2) settles near the theoretical constant 2 sigma^2.
    walk = a.DgpSpec("walk", (1.0,), True, 1, 1, sigma2=1.0)
    est = a.estimate_mspe(walk, a.PredictorSpec(1, a.PLUG_IN, 1),
                          n=2000, R=20000, seed=7)
    assert est.sigma_h2 == 1.0
    assert est.replications == 20000
    assert 1.5 < est.scaled_excess < 2.5
    assert est.scaled_excess == pytest.approx(2.0, abs=4 * est.scaled_excess_se)
    assert est.mspe == pytest.approx(1.0, rel=0.02)
    assert est.se < 0.02


def test_estimate_mspe_matches_theoretical_loss():
    dgp = a.DGPS["X"]
    est = a.estimate_mspe(dgp, a.PredictorSpec(2, a.PLUG_IN, 2),
                          n=400, R=3000, seed=5)
    want = a.loss(a.model_for(dgp), 2, 2, a.PLUG_IN).value
    assert est.sigma_h2 == pytest.approx(25.0 * (1.0 + 1.5 ** 2))
    assert est.scaled_excess == pytest.approx(want, rel=0.10)


def test_estimate_mspe_is_deterministic():
    dgp = a.DGPS["X"]
    spec = a.PredictorSpec(2, a.DIRECT, 2)
    assert (a.estimate_mspe(dgp, spec, 300, 50, seed=4)
            == a.estimate_mspe(dgp, spec, 300, 50, seed=4))


@pytest.mark.parametrize("spec", [a.PredictorSpec(2, a.DIRECT, 2),
                                  a.PredictorSpec(3, a.PLUG_IN, 2)],
                         ids=["direct", "plug-in"])
def test_estimate_mspe_scales_by_powers_of_four(spec):
    # At sigma2 = 25 * 4^m the series are 2^m times those at 25.  The
    # estimator simulates in units of a power of two, so every field is
    # the one at 25 times 4^m, rounded once: no RuntimeWarning or
    # OverflowError at 2^1000, and no zero standard error at 2^-1060,
    # where err^4 would underflow.
    base = a.estimate_mspe(a.DGPS["III"], spec, 300, 50, seed=1)
    for m in (-530, 0, 500):
        dgp = a.DgpSpec("III", (0.0, 0.2, 0.8), True, 2, 10,
                        sigma2=25 * 4.0 ** m)
        est = a.estimate_mspe(dgp, spec, 300, 50, seed=1)
        assert est.replications == base.replications
        for field in ("mspe", "se", "scaled_excess", "scaled_excess_se",
                      "sigma_h2"):
            assert getattr(est, field) \
                == math.ldexp(getattr(base, field), 2 * m), (m, field)
        assert est.se > 0.0


def _one_block_mspe(dgp, spec, n, R, seed):
    """estimate_mspe written longhand: every innovation in one draw, the
    fits and the future noise one block of 4096 rows at a time, as the
    estimator once ran, the future noise summed over its h terms in
    order, and math.fsum for every sum."""
    k, h, method = spec.k, spec.h, spec.method
    levels = np.asarray(dgp.levels, dtype=float)
    w = a.impulse_response(levels, h - 1)
    eps = (np.random.default_rng(seed).standard_normal((R, n + h))
           * math.sqrt(dgp.sigma2))
    x = scipy_lfilter([1.0], np.concatenate(([1.0], -levels)), eps, axis=1)
    lag = 1 if method == a.PLUG_IN else h
    sums = []
    for start in range(0, R, 4096):
        rows = slice(start, start + 4096)
        windows = np.lib.stride_tricks.sliding_window_view(
            x[rows, :n], k, axis=1)[:, :, ::-1]
        design = windows[:, :n - lag - k + 1, :]
        gram = np.einsum("bjk,bjl->bkl", design, design)
        cross = np.einsum("bjk,bj->bk", design, x[rows, k + lag - 1:n])
        coeffs = np.linalg.solve(gram, cross[:, :, None])[:, :, 0]
        if method == a.PLUG_IN:
            powered = coeffs.copy()
            for _ in range(h - 1):
                powered = np.array([a.companion_apply(c, v)
                                    for c, v in zip(coeffs, powered)])
            coeffs = powered
        err = (np.einsum("bk,bk->b", coeffs, windows[:, n - k, :])
               - x[rows, n + h - 1])
        u = err + sum(eps[rows, n + h - 1 - j] * w[j] for j in range(h))
        err2, u2 = err * err, u * u
        sums.append([math.fsum(t) for t in (err2, err2 * err2, u2, u2 * u2)])
    err2, err4, u2, u4 = (math.fsum(column) / R for column in zip(*sums))
    return a.MspeEstimate(
        mspe=err2, se=math.sqrt(max(err4 - err2 ** 2, 0.0) / R),
        scaled_excess=n * u2,
        scaled_excess_se=n * math.sqrt(max(u4 - u2 ** 2, 0.0) / R),
        replications=R, sigma_h2=float(dgp.sigma2 * np.dot(w, w)))


@pytest.mark.parametrize("method", [a.DIRECT, a.PLUG_IN])
@pytest.mark.parametrize("dgp_id, k", [("X", 2), ("VII", 3), ("IX", 11)])
@pytest.mark.parametrize("R", [5, 9, 4100])
def test_estimate_mspe_equals_the_one_block_longhand(dgp_id, k, method, R):
    # R = 4100 straddles one block of 4096, and the default chunk budget
    # splits it into several chunks.  Over 4096 rows a last-bit change
    # in one row's future noise vanishes in the sums; over 5 or 9 it shows.
    dgp = a.DGPS[dgp_id]
    spec = a.PredictorSpec(k, method, dgp.horizon)
    assert (a.estimate_mspe(dgp, spec, 300, R, seed=11)
            == _one_block_mspe(dgp, spec, 300, R, 11))


@pytest.mark.parametrize("method", [a.DIRECT, a.PLUG_IN])
@pytest.mark.parametrize("R", [2, 9, 4097])
def test_estimate_mspe_does_not_depend_on_the_chunk_size(monkeypatch,
                                                         method, R):
    # The stream is drawn row-major in replication order, so the rows per
    # chunk change no draw, fit or sum.  At n = 60 the default budget
    # holds R = 2 and 9 in one chunk and R = 4097 in four; R = 4097
    # straddles one block of partial sums (_MSPE_BATCH).  A short switch interval makes the
    # draw thread and the fitting thread trade the interpreter lock often.
    dgp, n = a.DGPS["X"], 60
    spec = a.PredictorSpec(2, method, dgp.horizon)
    want = a.estimate_mspe(dgp, spec, n, R, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for rows in (1, 7):
            monkeypatch.setattr(simulation, "_MSPE_CHUNK_BYTES",
                                8 * (n + spec.h) * rows)
            assert a.estimate_mspe(dgp, spec, n, R, seed=3) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("R", [4096, 9000])
def test_estimate_mspe_memory_does_not_grow_with_the_replications(R):
    # 4096 replications of n + h = 2010 innovations are 66 MB as one
    # array; the chunks keep the whole call far below that, for any R:
    # three chunk-sized arrays of 1 MiB (_MSPE_CHUNK_BYTES), two
    # innovation buffers and the filtered chunk, and arrays of one block
    # of partial sums.
    tracemalloc.start()
    try:
        a.estimate_mspe(a.DGPS["X"], a.PredictorSpec(2, a.DIRECT, 10),
                        2000, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_estimate_mspe_failure_names_the_replication_and_ends_the_draws(
        monkeypatch):
    # With no noise every design is singular; the error names the first
    # replication, and the draw thread, busy with the next chunk when
    # the first one fails, is gone once the call has raised.
    flat = a.DgpSpec("flat", (0.0, 0.2, 0.8), True, 2, 10, sigma2=0.0)
    spec = a.PredictorSpec(2, a.DIRECT, 2)
    monkeypatch.setattr(simulation, "_MSPE_CHUNK_BYTES", 8 * 202 * 7)
    before = threading.active_count()
    with pytest.raises(a.SingularDesign, match="replication 0$"):
        a.estimate_mspe(flat, spec, 200, 50)
    assert threading.active_count() == before


def test_estimate_mspe_validates_inputs(monkeypatch):
    dgp = a.DGPS["X"]
    with pytest.raises(a.SeriesTooShort):
        a.estimate_mspe(dgp, a.PredictorSpec(5, a.PLUG_IN, 2), 9, 10)
    with pytest.raises(a.SeriesTooShort):
        a.estimate_mspe(dgp, a.PredictorSpec(5, a.DIRECT, 4), 12, 10)
    with pytest.raises(ValueError):
        a.estimate_mspe(dgp, a.PredictorSpec(1, a.PLUG_IN, 1), 100, 1)
    with pytest.raises(ValueError, match="^method must be"):
        a.estimate_mspe(dgp, a.PredictorSpec(2, "other", 2), 100, 10)

    # n and R must be integers, not bools, of at least 1 and 2, before
    # anything is drawn, and n is checked before it is compared with the
    # predictor's order.
    def draw(*args):
        raise AssertionError("drew innovations before validating")

    monkeypatch.setattr(simulation, "_draw_innovations", draw)
    spec = a.PredictorSpec(1, a.PLUG_IN, 1)
    for name, value in [("n", 100.5), ("n", np.float64(100)), ("n", True),
                        ("n", "300"), ("R", 3.5), ("R", True), ("R", "10"),
                        ("R", 1)]:
        kwargs = {"n": 100, "R": 10, name: value}
        least = 2 if name == "R" else 1
        with pytest.raises(ValueError, match="^%s must be an integer of at "
                                             "least %d, not " % (name, least)):
            a.estimate_mspe(dgp, spec, **kwargs)


@pytest.mark.parametrize("k, h", [(0, 1), (-1, 2), (1, 0), (2, -3)])
def test_estimate_mspe_rejects_orders_and_horizons_below_one(
        monkeypatch, k, h):
    def draw(*args):
        raise AssertionError("drew innovations before validating")

    monkeypatch.setattr(simulation, "_draw_innovations", draw)
    for method in (a.PLUG_IN, a.DIRECT):
        with pytest.raises(ValueError, match="at least 1"):
            a.estimate_mspe(a.DGPS["III"], a.PredictorSpec(k, method, h),
                            100, 10)


def test_mspe_errors_match_the_fitted_predictors(monkeypatch):
    # estimate_mspe builds its Grams with einsum and the fits with
    # matmul, so one replication's prediction error agrees with
    # fit_direct or plug_in_multi plus predict to rounding, not bit for
    # bit.  It simulates in units of 2^s, s the exponent of sqrt(sigma2),
    # so its errors are those of the series as drawn times 2^-s.
    dgp, n, R, seed = a.DGPS["VII"], 300, 3, 12
    h = dgp.horizon
    unit = 2.0 ** -math.frexp(math.sqrt(dgp.sigma2))[1]
    errors, real = [], simulation._block_sums
    monkeypatch.setattr(simulation, "_block_sums", lambda err, *rest: (
        errors.append(err.copy()) or real(err, *rest)))
    eps = (np.random.default_rng(seed).standard_normal((R, n + h))
           * math.sqrt(dgp.sigma2))
    x = scipy_lfilter([1.0], np.concatenate(([1.0], -np.array(dgp.levels))),
                      eps, axis=1)
    for k in (1, 3, 6):
        for method in (a.PLUG_IN, a.DIRECT):
            a.estimate_mspe(dgp, a.PredictorSpec(k, method, h), n, R, seed)
            for r, err in enumerate(errors.pop()):
                series = x[r, :n]
                if method == a.DIRECT:
                    fit = a.fit_direct(series, k, h)
                else:
                    fit = a.plug_in_multi(a.fit_one_step(series, k), h)
                want = a.predict(series, fit).value - x[r, n + h - 1]
                assert err == pytest.approx(want * unit, rel=1e-10, abs=0)


@pytest.mark.blas_layout
def test_block_sums_do_not_depend_on_the_layout_of_future():
    # The future-noise product is a fixed-order multiply-add, so a row's
    # sums are the same for C- and F-ordered blocks, and for a block cut
    # to its first rows.
    rng = np.random.default_rng(8)
    err, future = rng.normal(size=257), rng.normal(size=(257, 7))
    w = a.impulse_response(np.array(a.DGPS["IX"].levels), 6)
    want = simulation._block_sums(err, np.ascontiguousarray(future), w)
    assert simulation._block_sums(err, np.asfortranarray(future), w) == want
    for rows in (1, 3, 64):
        assert simulation._block_sums(err[:rows], future[:rows], w) == \
            simulation._block_sums(err[:rows], np.asfortranarray(
                future[:rows]), w)

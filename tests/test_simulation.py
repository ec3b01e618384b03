"""Monte Carlo harness: generators, seeding, tables, MSPE estimation."""

import io
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.signal import lfilter as scipy_lfilter

import arstep as a
from arstep import _kernels
from oracles import yule_walker_autocovariances


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


def _filters_agree(b, a_coeffs, x, axis=-1):
    return _same_bits(_kernels.lfilter(b, a_coeffs, x, axis=axis),
                      scipy_lfilter(b, a_coeffs, x, axis=axis))


def test_filter_kernel_is_scipys_lfilter_bit_for_bit():
    rng = np.random.default_rng(8)
    for dgp in a.DGPS.values():
        filt = np.concatenate(([1.0], -np.asarray(dgp.levels)))
        for n in (1, 300, 2000):
            assert _filters_agree([1.0], filt, rng.standard_normal(n) * 5.0)
        # A stack filtered row by row, as estimate_mspe filters its block.
        assert _filters_agree([1.0], filt, rng.standard_normal((64, 310)),
                              axis=1)
    # One coefficient in a is scipy's convolution path, signed zeros kept.
    x = np.array([-0.0, 0.0, 1.5, -2.0, -0.0])
    assert _filters_agree([1.0], [1.0], x)
    assert _filters_agree([1.0], [1.0], np.stack([x, -x]), axis=1)
    # sigma2 = 0: the burn-in innovations are signed zeros, then a pulse.
    dgp = a.DgpSpec("quiet", a.DGPS["VII"].levels, True, 3, 10, sigma2=0.0)
    filt = np.concatenate(([1.0], -np.asarray(dgp.levels)))
    eps = np.random.default_rng(5).standard_normal(60) * 0.0
    eps[20] += 1.0
    assert _filters_agree([1.0], filt, eps)
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
        assert _filters_agree([1.0], [1.0, -0.3, 0.8], x, axis=1)
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
    # part, whose variance solves the Yule-Walker system.
    dgp = a.DGPS["III"]
    model = a.model_for(dgp)
    gamma = yule_walker_autocovariances(model.stationary, model.sigma2,
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


def test_all_nan_criteria_fail_one_replication_not_the_table():
    # sigma2 = 1e-320 keeps the series near 1e-160, where the Grams
    # underflow and every criterion of a stage comes out NaN.
    tiny = a.DgpSpec("tiny", (0.0, 0.2, 0.8), True, 2, 10, sigma2=1e-320)
    with np.errstate(all="ignore"):
        table = a.run_frequency_experiment([tiny], [400], ("B",), R=3)
        with pytest.raises(a.NonFiniteCriterion):
            a.select_by_criterion(
                a.generate(tiny, 400, a.replication_seed(0, tiny, 400, 0)),
                2, 10)
    key = ("tiny", 400, "B")
    assert table.failures[key] == 3
    assert table.failure_reasons[key] == {"NonFiniteCriterion": 3}


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


def test_dgp_levels_are_validated_before_simulating(monkeypatch):
    explosive = a.DgpSpec("Z", (1.2,), False, 2, 5)
    with pytest.raises(a.UnstableStationaryPart):
        a.generate(explosive, 5000, 0)
    with pytest.raises(a.UnstableStationaryPart):
        a.estimate_mspe(explosive, a.PredictorSpec(1, a.DIRECT, 2), 100, 10)
    with pytest.raises(a.NotUnitRoot):
        a.generate(a.DgpSpec("Z", (0.5,), True, 2, 5), 100, 0)
    for levels in ((np.nan,), (1.0, np.nan), (np.inf, 0.5)):
        with pytest.raises(a.UnstableStationaryPart):
            a.generate(a.DgpSpec("Z", levels, False, 2, 5), 100, 0)
        with pytest.raises((a.NotUnitRoot, a.UnstableStationaryPart)):
            a.generate(a.DgpSpec("Z", levels, True, 2, 5), 100, 0)

    def no_replication(task):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(a.simulation, "_run_block", no_replication)
    with pytest.raises(a.UnstableStationaryPart):
        a.run_frequency_experiment(["I", explosive], [100], R=3)
    # Only the levels are checked: sigma2 = 0 stays legal.
    flat = a.DgpSpec("flat", (1.0,), True, 2, 3, sigma2=0.0)
    assert not a.generate(flat, 10, 0).any()


def test_frequency_experiment_validates_arguments():
    with pytest.raises(ValueError):
        a.run_frequency_experiment(["I"], [100], R=0)
    with pytest.raises(ValueError):
        a.run_frequency_experiment(["I"], [100], ("Z",), R=2)


def test_frequency_table_rendering():
    table = a.FrequencyTable(
        rows={("I", 100, "B"): {(1, a.DIRECT): 3, (2, a.PLUG_IN): 1}},
        replications=5,
        failures={("I", 100, "B"): 1})
    records = table.to_records()
    assert [r["count"] for r in records] == [3, 1, 1]
    assert records[-1]["method"] == "failed"
    text = table.format_text()
    assert "5 replications" in text
    assert "failures=1" in text
    assert "k=1" in text and a.DIRECT in text
    sink = io.StringIO()
    table.to_csv(sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0].rstrip() == "dgp,n,procedure,order,method,count,frequency"
    assert len(lines) == 4
    assert lines[1].startswith("I,100,B,1,direct,3,0.6")


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


def test_estimate_mspe_validates_inputs():
    dgp = a.DGPS["X"]
    with pytest.raises(a.SeriesTooShort):
        a.estimate_mspe(dgp, a.PredictorSpec(5, a.PLUG_IN, 2), 9, 10)
    with pytest.raises(a.SeriesTooShort):
        a.estimate_mspe(dgp, a.PredictorSpec(5, a.DIRECT, 4), 12, 10)
    with pytest.raises(ValueError):
        a.estimate_mspe(dgp, a.PredictorSpec(1, a.PLUG_IN, 1), 100, 1)

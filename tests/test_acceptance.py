"""Acceptance gate: one check per release criterion, in order.

Every test prints exactly one line

    CRITERION nn <slug>: PASS|FAIL

to the terminal before asserting, so a plain pytest run doubles as the
acceptance report.  The criteria mix analytic identities (exact, tight
tolerances), frozen external reference values, and seeded Monte Carlo
gates with thresholds set three binomial standard errors below the
large-sample targets.
"""

import sys
import time

import numpy as np

import arstep as a
from oracles import (least_squares_by_elimination, quartic_gap_oracle,
                     substitution_coefficients)
from sampling import sample_unit_root_models


def _report(capsys, number, slug, ok):
    with capsys.disabled():
        sys.stdout.write("CRITERION %02d %s: %s\n"
                         % (number, slug, "PASS" if ok else "FAIL"))


# Reference row for the quartic-family cost gap at a1 = 0.1 .. 0.9, kept
# verbatim from an external source whose derivation is not recorded.  It
# is no longer the pass condition, because simulation refutes it: paired
# simulations of the fitted predictors (n = 2000, R = 40000, seeds 0-4)
# give 0.189 +- 0.008, 0.312 +- 0.009, 0.390 +- 0.010 and 0.429 +- 0.010
# at a1 = 0.1 .. 0.4, within 0.033 of the computed gap at all nine points
# but 75, 36, 19 and 12 standard errors from the row.  Its a1 values stay
# the evaluation points of criterion 01.
REFERENCE_GAP_ROW = {
    0.1: -0.378, 0.2: -0.013, 0.3: 0.197, 0.4: 0.310, 0.5: 0.354,
    0.6: 0.336, 0.7: 0.247, 0.8: 0.051, 0.9: -0.321,
}

# Minimal-loss combinations for the benchmark generators (reference
# notation: method 1 = plug-in, method 2 = direct).
REFERENCE_BEST = {
    "I": (1, a.DIRECT), "II": (2, a.PLUG_IN), "III": (2, a.DIRECT),
    "IV": (3, a.PLUG_IN), "V": (1, a.DIRECT), "VI": (2, a.PLUG_IN),
    "VII": (2, a.DIRECT), "VIII": (3, a.PLUG_IN), "IX": (2, a.DIRECT),
    "X": (2, a.PLUG_IN),
}


def test_criterion_01_quartic_family_gap_reference_row(capsys):
    start = time.perf_counter()
    got = {a1: a.minimal_order_cost_gap(a1) for a1 in REFERENCE_GAP_ROW}
    elapsed = time.perf_counter() - start
    bad = {}
    for a1, value in got.items():
        want = quartic_gap_oracle(a1)
        if abs(value - want) > 1e-9 * abs(want):
            bad[a1] = (value, want)
    # Paired simulation where the computed gap and the old row differ most
    # (by 0.54 and 0.29): both predictors are refitted on one innovation
    # stream, so the difference of their scaled excesses estimates
    # n * (MSPE direct - MSPE plug-in), the gap, with a standard error of
    # about 0.025.  Over seeds 0-19 it lies within 0.048 of the gap.
    off = {}
    for a1 in (0.1, 0.2):
        dgp = a.DgpSpec("quartic", a.quartic_family(a1).levels, True, 3, 4,
                        sigma2=1.0)
        direct = a.estimate_mspe(dgp, a.PredictorSpec(3, a.DIRECT, 3),
                                 n=1000, R=20000, seed=0)
        plug_in = a.estimate_mspe(dgp, a.PredictorSpec(4, a.PLUG_IN, 3),
                                  n=1000, R=20000, seed=0)
        simulated = direct.scaled_excess - plug_in.scaled_excess
        if abs(simulated - got[a1]) > 0.1:
            off[a1] = (simulated, got[a1])
    ok = not bad and not off and elapsed < 1.0
    _report(capsys, 1, "quartic-family-gap-reference-row", ok)
    assert elapsed < 1.0
    assert not bad, (
        "computed gap (first) disagrees with the first-principles oracle "
        "(second) at %d of 9 points: %r" % (len(bad), bad))
    assert not off, (
        "simulated gap (first) is more than 0.1 from the computed gap "
        "(second): %r" % off)


def test_criterion_02_random_walk_one_step_constant(capsys):
    ok = True
    for sigma2 in (1.0, 2.0, 25.0, 0.5):
        walk = a.UnitRootArModel((1.0,), sigma2)
        value = a.loss(walk, 1, 1, a.PLUG_IN).value
        ok &= abs(value - 2.0 * sigma2) <= 1e-12 * (2.0 * sigma2)
    _report(capsys, 2, "random-walk-one-step-constant", ok)
    assert ok


def test_criterion_03_closed_form_costs_at_h2(capsys):
    models = sample_unit_root_models(200, seed=29)
    ok = True
    for model in models:
        for k in range(max(2, model.p + 1), 7):
            f1 = a.plugin_cost(model, 2, k)
            f2 = a.direct_cost(model, 2, k)
            c1 = a.closed_form_h2(model, k, a.PLUG_IN)
            c2 = a.closed_form_h2(model, k, a.DIRECT)
            ok &= abs(f1 - c1) <= 1e-8 * abs(c1)
            ok &= abs(f2 - c2) <= 1e-8 * abs(c2)
            prev = model.stationary[k - 2] if k - 2 < model.p else 0.0
            want_gap = (1.0 - prev ** 2) * model.sigma2
            ok &= abs((f2 - f1) - want_gap) <= 1e-8 * max(1.0, abs(want_gap))
    _report(capsys, 3, "closed-form-costs-at-h2", ok)
    assert ok


def test_criterion_04_method_gap_grows_with_horizon(capsys):
    start = time.perf_counter()
    models = sample_unit_root_models(200, seed=29)
    ok = True
    for model in models:
        for k in range(max(2, model.p + 1), 7):
            gap2 = (a.direct_cost(model, 2, k)
                    - a.plugin_cost(model, 2, k))
            ok &= gap2 > 0.0
            for h in range(3, 7):
                gap_h = (a.direct_cost(model, h, k)
                         - a.plugin_cost(model, h, k))
                ok &= gap_h >= gap2 - 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(capsys, 4, "method-gap-grows-with-horizon", ok)
    assert elapsed < 10.0
    assert ok


def test_criterion_05_benchmark_loss_minimizers(capsys):
    start = time.perf_counter()
    got = {}
    for label, dgp in a.DGPS.items():
        model = a.model_for(dgp)
        got[label] = a.best_combinations(model, dgp.horizon, dgp.max_order)
    elapsed = time.perf_counter() - start
    bad = {label: sorted(got[label]) for label in a.DGPS
           if got[label] != {REFERENCE_BEST[label]}}
    ok = not bad and elapsed < 5.0
    _report(capsys, 5, "benchmark-loss-minimizers", ok)
    assert elapsed < 5.0
    assert not bad, bad


def test_criterion_06_direct_coefficient_identity(capsys):
    model = a.UnitRootArModel((0.9, -0.81, 0.91), 25.0)
    fitted = a.direct_coefficients(model, 3)
    want = np.array([0.181, 0.819, 0.0])
    oracle = substitution_coefficients(model.levels, 3)
    ok = (np.allclose(fitted.coeffs, want, rtol=0.0, atol=1e-12)
          and fitted.p_h == 2
          and np.allclose(oracle, fitted.coeffs, rtol=0.0, atol=1e-12))
    _report(capsys, 6, "direct-coefficient-identity", ok)
    assert ok


def test_criterion_07_selection_frequency_two_step(capsys):
    start = time.perf_counter()
    table = a.run_frequency_experiment(["III"], [1000], ("B",), R=200,
                                       seed=0)
    elapsed = time.perf_counter() - start
    freq = table.frequency("III", 1000, "B", 2, a.DIRECT)
    ok = freq >= 0.95 and elapsed < 180.0
    _report(capsys, 7, "selection-frequency-two-step", ok)
    assert elapsed < 180.0
    assert freq >= 0.95, freq


def test_criterion_08_selection_frequency_ten_step(capsys):
    start = time.perf_counter()
    table = a.run_frequency_experiment(["IX"], [500], ("B",), R=100,
                                       seed=0)
    elapsed = time.perf_counter() - start
    freq = table.frequency("IX", 500, "B", 2, a.DIRECT)
    ok = freq >= 0.97 and elapsed < 300.0
    _report(capsys, 8, "selection-frequency-ten-step", ok)
    assert elapsed < 300.0
    assert freq >= 0.97, freq


def test_criterion_09_sequential_error_per_term(capsys):
    dgp = a.DGPS["VII"]
    target = a.sigma_h_squared(a.model_for(dgp), 3)
    per_term = []
    for r in range(20):
        series = a.generate(dgp, 5000, a.replication_seed(909, dgp, 5000, r))
        m = a.min_start_index(series, 10, 3)
        value = a.accumulated_prediction_error(series, 2, 3, a.DIRECT, 10)
        per_term.append(value / ((5000 - 3) - m + 1))
    mean = float(np.mean(per_term))
    ok = abs(mean - target) <= 0.05 * target
    _report(capsys, 9, "sequential-error-per-term", ok)
    assert ok, (mean, target)


def test_criterion_10_mspe_excess_random_walk(capsys):
    start = time.perf_counter()
    walk = a.DgpSpec("walk", (1.0,), True, 1, 1, sigma2=1.0)
    est = a.estimate_mspe(walk, a.PredictorSpec(1, a.PLUG_IN, 1),
                          n=2000, R=100000, seed=7)
    elapsed = time.perf_counter() - start
    ok = 1.5 <= est.scaled_excess <= 2.5 and elapsed < 600.0
    _report(capsys, 10, "mspe-excess-random-walk", ok)
    assert elapsed < 600.0
    assert 1.5 <= est.scaled_excess <= 2.5, est.scaled_excess


def test_criterion_11_determinism_across_parallelism(capsys):
    serial = a.run_frequency_experiment(["III"], [150], ("I", "B"), R=8,
                                        seed=21)
    parallel = a.run_frequency_experiment(["III"], [150], ("I", "B"), R=8,
                                          seed=21, workers=2)
    ok = (serial.rows == parallel.rows
          and serial.failures == parallel.failures
          and serial.replications == parallel.replications)
    spec = a.PredictorSpec(2, a.DIRECT, 2)
    ok &= (a.estimate_mspe(a.DGPS["X"], spec, 300, 50, seed=4)
           == a.estimate_mspe(a.DGPS["X"], spec, 300, 50, seed=4))
    _report(capsys, 11, "determinism-across-parallelism", ok)
    assert ok


def test_criterion_12_estimator_oracles(capsys):
    ok = True
    models = sample_unit_root_models(50, seed=77)
    for index, model in enumerate(models):
        dgp = a.DgpSpec("oracle-%d" % index, tuple(model.levels), True,
                        2, 6, sigma2=model.sigma2)
        n = 50 + 3 * index
        series = a.generate(dgp, n, seed=1000 + index)
        k = 1 + index % 4
        h = 2 + index % 5

        one_step = a.fit_one_step(series, k)
        design = a.lag_matrix(series, k, k, n - 1)
        want = least_squares_by_elimination(design, series[k:n])
        ok &= np.allclose(one_step.coeffs, want, rtol=1e-9, atol=1e-9)

        direct = a.fit_direct(series, k, h)
        design_h = a.lag_matrix(series, k, k, n - h)
        want_h = least_squares_by_elimination(design_h,
                                              series[k + h - 1:n])
        ok &= np.allclose(direct.coeffs, want_h, rtol=1e-9, atol=1e-9)

        powered = a.plug_in_multi(one_step, h)
        oracle = substitution_coefficients(tuple(one_step.coeffs), h)
        ok &= np.allclose(powered.coeffs, oracle, rtol=1e-12, atol=1e-12)
    _report(capsys, 12, "estimator-oracles", ok)
    assert ok

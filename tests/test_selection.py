"""Selection procedures: start index, sequential errors, criteria, steps."""

import numpy as np
import pytest

import arstep as a
from arstep.selection import _argmin_smallest, _criteria


def _series(label, n, r=0, seed=0):
    dgp = a.DGPS[label]
    return a.generate(dgp, n, a.replication_seed(seed, dgp, n, r))


def test_min_start_index_generic_series():
    rng = np.random.default_rng(17)
    series = rng.normal(size=60).cumsum()
    assert a.min_start_index(series, 2, 1) == 4
    assert a.min_start_index(series, 2, 3) == 6


def test_min_start_index_skips_degenerate_prefix():
    # A flat start keeps the order-1 Grams singular until the step occurs.
    series = np.concatenate([np.zeros(5), np.ones(20)])
    m = a.min_start_index(series, 1, 1)
    assert m >= 6
    a.accumulated_prediction_error(series, 1, 1, a.DIRECT, 1, start_index=m)


def test_min_start_index_degenerate_and_short_series():
    with pytest.raises(a.SeriesTooShort):
        a.min_start_index(np.zeros(40), 2, 1)
    with pytest.raises(a.SeriesTooShort):
        a.min_start_index(np.ones(6), 2, 2)


def test_penalty_presets():
    n = 1000
    base = np.log(n) / n
    assert a.PENALTY_PRESETS["A"].value(n) == pytest.approx(base)
    assert a.PENALTY_PRESETS["B"].value(n) == pytest.approx(2 * base)
    assert a.PENALTY_PRESETS["C"].value(n) == pytest.approx(3 * base)
    assert a.DEFAULT_PENALTY is a.PENALTY_PRESETS["B"]


def test_argmin_ties_take_smallest_order():
    assert _argmin_smallest({2: 1.0, 1: 1.0, 3: 0.5}) == 3
    assert _argmin_smallest({3: 0.5, 1: 0.5, 2: 0.7}) == 1


def _naive_ape(series, k, h, method, K):
    m = a.min_start_index(series, K, h)
    total = 0.0
    for i in range(m, len(series) - h + 1):
        if method == a.PLUG_IN:
            fit = a.plug_in_multi(a.fit_one_step(series, k, i=i), h)
        else:
            fit = a.fit_direct(series, k, h, i=i)
        pred = a.predict(series[:i], fit).value
        total += (series[i + h - 1] - pred) ** 2
    return total


def test_ape_matches_naive_refit_loop():
    series = _series("III", 120)
    for k in (1, 2, 3):
        for h in (1, 2):
            for method in (a.PLUG_IN, a.DIRECT):
                got = a.accumulated_prediction_error(series, k, h, method, 4)
                want = _naive_ape(series, k, h, method, 4)
                assert got == pytest.approx(want, rel=1e-9), (k, h, method)


def test_ape_vanishes_on_noiseless_series_at_minimal_order():
    dgp = a.DgpSpec("noiseless", (1.5, -0.5), True, 2, 2, sigma2=0.0)
    series = a.generate(dgp, 80, seed=0, impulse=3.0)
    for h, method in ((1, a.PLUG_IN), (2, a.DIRECT), (2, a.PLUG_IN)):
        value = a.accumulated_prediction_error(series, 2, h, method, 2)
        assert value == pytest.approx(0.0, abs=1e-12), (h, method)


def test_ape_h1_plug_in_equals_direct_exactly():
    series = _series("VII", 300)
    for k in (1, 2, 3, 5):
        plug = a.accumulated_prediction_error(series, k, 1, a.PLUG_IN, 6)
        direct = a.accumulated_prediction_error(series, k, 1, a.DIRECT, 6)
        assert plug == direct


def test_ape_per_term_tracks_h_step_noise_variance():
    dgp = a.DGPS["III"]
    sigma2_2 = a.sigma_h_squared(a.model_for(dgp), 2)
    series = _series("III", 2000, r=1, seed=42)
    m = a.min_start_index(series, 10, 2)
    value = a.accumulated_prediction_error(series, 2, 2, a.DIRECT, 10,
                                           start_index=m)
    terms = (2000 - 2) - m + 1
    assert value / terms == pytest.approx(sigma2_2, rel=0.10)


def test_ape_validates_candidate_order():
    series = _series("I", 100)
    with pytest.raises(ValueError):
        a.accumulated_prediction_error(series, 5, 1, a.DIRECT, 4)
    with pytest.raises(ValueError):
        a.accumulated_prediction_error(series, 1, 1, "other", 4)


def test_ape_start_index_without_rows_is_singular():
    # Sample end 3 leaves the direct 3-step fit no regressor rows.
    series = _series("III", 100)
    with pytest.raises(a.SingularDesign, match="i=3 leaves no regressor"):
        a.accumulated_prediction_error(series, 1, 3, a.DIRECT, 2,
                                       start_index=3)


def test_select_by_ape_outcome_structure():
    series = _series("III", 400)
    out = a.select_by_ape(series, 2, 5)
    assert set(out.orders) == {"first_stage", "direct", "plug_in"}
    assert out.m_h == a.min_start_index(series, 5, 2)
    assert set(out.first_stage) == set(range(1, 6))
    for k in range(1, 6):
        assert (k, a.DIRECT) in out.criteria
    for k in range(out.orders["first_stage"], 6):
        assert (k, a.PLUG_IN) in out.criteria
    assert (out.k, out.method) in out.criteria


def test_select_by_ape_h1_tie_goes_to_direct():
    # At h = 1 the two methods produce identical sums, so the final
    # comparison is an exact tie and must resolve to the direct label.
    for label in ("I", "III"):
        out = a.select_by_ape(_series(label, 300), 1, 5)
        assert out.method == a.DIRECT


def test_select_by_ape_equals_per_stage_sums_exactly():
    # The one-pass kernel must reproduce the three stages computed one at
    # a time, bit for bit.
    firsts = []
    for label, h, K in (("III", 2, 6), ("VII", 3, 6), ("X", 10, 8),
                        ("III", 1, 5)):
        series = _series(label, 300, r=1)
        out = a.select_by_ape(series, h, K)
        m1 = a.min_start_index(series, K, 1)
        assert out.m_h == a.min_start_index(series, K, h)
        assert out.first_stage == {
            k: a.accumulated_prediction_error(series, k, 1, a.DIRECT, K,
                                              start_index=m1)
            for k in range(1, K + 1)}
        k_first = out.orders["first_stage"]
        want = {(k, a.DIRECT): a.accumulated_prediction_error(
            series, k, h, a.DIRECT, K, start_index=out.m_h)
            for k in range(1, K + 1)}
        want.update({(k, a.PLUG_IN): a.accumulated_prediction_error(
            series, k, h, a.PLUG_IN, K, start_index=out.m_h)
            for k in range(k_first, K + 1)})
        assert out.criteria == want, (label, h)
        firsts.append(k_first)
    assert max(firsts) > 1


def test_procedures_reject_non_finite_series():
    series = _series("III", 200)
    for bad in (np.nan, np.inf, -np.inf):
        broken = series.copy()
        broken[150] = bad
        with pytest.raises(a.NonFiniteSeries):
            a.select_by_ape(broken, 2, 4)
        with pytest.raises(a.NonFiniteSeries):
            a.select_by_criterion(broken, 2, 4)
        with pytest.raises(a.NonFiniteSeries):
            a.accumulated_prediction_error(broken, 2, 2, a.DIRECT, 4)


def test_overflowing_grams_fail_with_typed_errors():
    # Finite values whose squares overflow give infinite Grams, on which
    # eigh and eigvalsh do not converge; the gate must still answer.
    series = _series("III", 300) * 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(a.SingularDesign):
            a.select_by_criterion(series, 2, 4)
        with pytest.raises(a.SingularDesign):
            a.fit_direct(series, 2, 2)
        with pytest.raises(a.SeriesTooShort):
            a.select_by_ape(series, 2, 4)
        # Past the start-index search, the batched gate answers too.
        with pytest.raises(a.SingularDesign):
            a.accumulated_prediction_error(series, 3, 2, a.DIRECT, 3, 7)


def test_criterion_traces_are_exactly_k_at_h1():
    series = _series("I", 400)
    K = 6
    n = len(series)
    cn = a.DEFAULT_PENALTY.value(n)
    fit_full = a.fit_one_step(series, K)
    sigma_tilde = a.residual_mse(series, fit_full, 1, K)
    for k in (1, 2, 4):
        plug = a.plugin_criterion(series, k, 1, K)
        direct = a.direct_criterion(series, k, 1, K)
        sig_hat = a.residual_mse(series, a.fit_one_step(series, k), 1, K)
        assert (plug - sig_hat) / (sigma_tilde * cn) == pytest.approx(
            k, rel=1e-9)
        assert (direct - sig_hat) / (sigma_tilde * cn) == pytest.approx(
            k, rel=1e-9)
        assert plug == pytest.approx(direct, rel=1e-10)


def test_criterion_traces_track_theory_at_h3():
    # The trace penalties (times the scale estimate) approximate the
    # unit-root loss constant sigma^2 * (sum b_j)^2 plus the method's
    # estimation cost.
    dgp = a.DGPS["VII"]
    model = a.model_for(dgp)
    b = a.level_ma_weights(model, 2)
    unit_part = model.sigma2 * float(b.sum()) ** 2
    target_plug = unit_part + a.plugin_cost(model, 3, 2)
    target_direct = unit_part + a.direct_cost(model, 3, 2)
    for r in range(3):
        series = a.generate(dgp, 2000, a.replication_seed(2024, dgp, 2000, r))
        cn = a.DEFAULT_PENALTY.value(len(series))
        plug = a.plugin_criterion(series, 2, 3, 10)
        direct = a.direct_criterion(series, 2, 3, 10)
        sig_plug = a.residual_mse(
            series, a.plug_in_multi(a.fit_one_step(series, 2), 3), 3, 10)
        sig_direct = a.residual_mse(series, a.fit_direct(series, 2, 3), 3, 10)
        assert (plug - sig_plug) / cn == pytest.approx(target_plug, rel=0.35)
        assert (direct - sig_direct) / cn == pytest.approx(target_direct,
                                                           rel=0.35)


def _criteria_one_at_a_time(series, h, K, penalty=a.DEFAULT_PENALTY):
    """Every criterion value of select_by_criterion, candidate by candidate.

    Each candidate refits from scratch; the plug-in cost matrix is summed
    as L = sum_j bhat_j A^(h-1-j) rather than by the Horner recursion.
    """
    n = len(series)
    cn = penalty.value(n)
    full = a.fit_one_step(series, K)
    sigma = a.residual_mse(series, full, 1, K)

    def direct(k, g, weights):
        fit = a.fit_direct(series, k, g)
        X = a.lag_matrix(series, k, k, n - g)
        z = sum(weights[i] * series[i:n - g + 1 + i] for i in range(g))
        Z = a.lag_matrix(z, k, k, n - 2 * g + 1)
        trace = np.trace(np.linalg.solve(X.T @ X, Z.T @ Z))
        return a.residual_mse(series, fit, g, K) + trace * sigma * cn

    def plug_in(k, bhat):
        one = a.fit_one_step(series, k)
        X = a.lag_matrix(series, k, k, n - h)
        W = X.T @ X
        A = a.companion_matrix(one.coeffs)
        L = sum(bhat[j] * np.linalg.matrix_power(A, h - 1 - j)
                for j in range(h))
        trace = np.trace(W @ L @ np.linalg.solve(W, L.T))
        sig = a.residual_mse(series, a.plug_in_multi(one, h), h, K)
        return sig + trace * sigma * cn

    bhat = a.fitted_ma_weights(full, h - 1)
    first_stage = {k: direct(k, 1, [1.0]) for k in range(1, K + 1)}
    criteria = {(k, a.DIRECT): direct(k, h, bhat) for k in range(1, K + 1)}
    criteria.update({(k, a.PLUG_IN): plug_in(k, bhat)
                     for k in range(1, K + 1)})
    return first_stage, criteria


def test_select_by_criterion_matches_candidate_by_candidate_values():
    for label in ("I", "III", "VII", "IX", "X"):
        dgp = a.DGPS[label]
        series = _series(label, 400, r=2)
        for h in (1, dgp.horizon):
            out = a.select_by_criterion(series, h, dgp.max_order)
            first_stage, criteria = _criteria_one_at_a_time(
                series, h, dgp.max_order)
            assert out.first_stage.keys() == first_stage.keys()
            assert out.criteria.keys() == criteria.keys()
            for k, want in first_stage.items():
                assert out.first_stage[k] == pytest.approx(want, rel=1e-12)
            for key, want in criteria.items():
                assert out.criteria[key] == pytest.approx(want, rel=1e-12), \
                    (label, h, key)


#: Exception types of select_by_criterion, plugin_criterion(k) and
#: direct_criterion(k), in that order, on the first n values of a VII
#: series, keyed (K, h, k) then n, for n at or just below the short-series
#: limits 2K, K + h + 1, 2h + k - 1 and 2K + h - 1: S is SingularDesign,
#: W WindowTooShort and - no error.  Recorded from the candidate-by-
#: candidate implementation.
SHORT_SERIES_ERRORS = {
    (1, 4, 1): {1: "SSS", 2: "WWW", 4: "SWS", 5: "WWW", 6: "W-W",
                7: "W-W", 8: "---"},
    (2, 6, 1): {3: "SSS", 4: "SWS", 8: "WWW", 9: "W-W", 11: "W-W",
                12: "W--"},
    (2, 6, 2): {3: "SSS", 4: "SWS", 8: "WWS", 9: "W-W", 12: "W-W",
                13: "---"},
    (2, 1, 2): {2: "SSS", 3: "SSS", 4: "---"},
    (3, 2, 1): {3: "SSS", 4: "SSS", 5: "SSS", 6: "S--", 7: "---"},
    (4, 3, 4): {7: "SSS", 8: "SSS", 9: "SSS", 10: "---"},
    (5, 2, 1): {9: "SSS", 10: "S--", 11: "---"},
}


def test_short_series_raise_the_recorded_types():
    dgp = a.DGPS["VII"]
    series = a.generate(dgp, 100, a.replication_seed(0, dgp, 100, 0))
    codes = {"S": a.SingularDesign, "W": a.WindowTooShort}
    for (K, h, k), by_n in SHORT_SERIES_ERRORS.items():
        for n, types in by_n.items():
            x = series[:n]
            calls = (lambda: a.select_by_criterion(x, h, K),
                     lambda: a.plugin_criterion(x, k, h, K),
                     lambda: a.direct_criterion(x, k, h, K))
            for call, code in zip(calls, types):
                if code == "-":
                    call()
                    continue
                with pytest.raises(codes[code]) as caught:
                    call()
                assert type(caught.value) is codes[code], (K, h, k, n)


def test_underfitting_inflates_the_direct_criterion():
    dgp = a.DGPS["VII"]
    wins = 0
    for r in range(200):
        series = a.generate(dgp, 2000, a.replication_seed(606, dgp, 2000, r))
        wins += (a.direct_criterion(series, 1, 3, 10)
                 > a.direct_criterion(series, 2, 3, 10))
    assert wins >= 190


def test_stacked_criteria_equal_one_series_at_a_time():
    # The stack goes through batched Grams, eigh, solves and one residual
    # sum buffer; every value must still be the single-series one.
    penalties = list(a.PENALTY_PRESETS.values())
    for label, h in (("I", 1), ("III", 2), ("VII", 3), ("IX", 10)):
        K = a.DGPS[label].max_order
        stack = np.array([_series(label, 300, r=r, seed=8) for r in range(4)])
        block = _criteria(stack, h, K, penalties, range(1, K + 1),
                          (a.DIRECT, a.PLUG_IN))
        for penalty, per_series in zip(penalties, block):
            for series, (first, direct, plug) in zip(stack, per_series):
                alone = a.select_by_criterion(series, h, K, penalty)
                assert alone.first_stage == first
                assert alone.criteria == {
                    **{(k, a.DIRECT): v for k, v in direct.items()},
                    **{(k, a.PLUG_IN): v for k, v in plug.items()}}


def test_select_by_criterion_outcome_structure():
    series = _series("X", 600)
    out = a.select_by_criterion(series, 2, 6)
    assert out.m_h is None
    assert set(out.first_stage) == set(range(1, 7))
    assert len(out.criteria) == 12
    assert (out.k, out.method) in out.criteria
    assert out.orders["plug_in"] >= out.orders["first_stage"]


def test_select_by_criterion_known_frequencies():
    table = a.run_frequency_experiment(["I"], [1000], ("B",), R=25, seed=1)
    assert table.counts("I", 1000, "B").get((1, a.DIRECT), 0) >= 23
    table = a.run_frequency_experiment(["X"], [1000], ("B",), R=25, seed=2)
    assert table.counts("X", 1000, "B").get((2, a.PLUG_IN), 0) >= 21


@pytest.mark.slow
def test_selection_efficiency_grows_with_sample_size():
    best = {"III": (2, a.DIRECT), "IV": (3, a.PLUG_IN),
            "VII": (2, a.DIRECT), "VIII": (3, a.PLUG_IN)}
    sizes = (300, 1000, 2000)
    R = 200
    table = a.run_frequency_experiment(list(best), sizes, ("B",), R=R,
                                       seed=11)
    slack = 2 / R  # saturation near 1.0 may lose a couple of replications
    for label, pair in best.items():
        freqs = [table.counts(label, n, "B").get(pair, 0) / R for n in sizes]
        assert freqs[-1] > 0.9, (label, freqs)
        for lo, hi in zip(freqs, freqs[1:]):
            assert hi >= lo - slack, (label, freqs)

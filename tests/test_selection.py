"""Selection procedures: start index, sequential errors, criteria, steps."""

import math
import tracemalloc

import numpy as np
import pytest

import arstep as a
from arstep.estimation import _lag_view, _singular_grams, _singular_prefix
from arstep.selection import (_argmin_smallest, _criteria, _outcome,
                              _padded_grams, _suffix_sums)
from oracles import gram_is_invertible


def _series(label, n, r=0, seed=0):
    dgp = a.DGPS[label]
    return a.generate(dgp, n, a.replication_seed(seed, dgp, n, r))


@pytest.mark.blas_layout
def test_min_start_index_generic_series():
    rng = np.random.default_rng(17)
    series = rng.normal(size=60).cumsum()
    assert a.min_start_index(series, 2, 1) == 4
    assert a.min_start_index(series, 2, 3) == 6


@pytest.mark.blas_layout
def test_min_start_index_skips_degenerate_prefix():
    # A flat start keeps the order-1 Grams singular until the step occurs.
    series = np.concatenate([np.zeros(5), np.ones(20)])
    m = a.min_start_index(series, 1, 1)
    assert m >= 6
    a.accumulated_prediction_error(series, 1, 1, a.DIRECT, 1)


@pytest.mark.blas_layout
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
    with pytest.raises(ValueError, match="n >= 2"):
        a.PENALTY_PRESETS["A"].value(1)


@pytest.mark.parametrize("multiplier", [np.nan, np.inf, -np.inf, 0.0, -2.0])
def test_penalty_weight_rejects_bad_multipliers(multiplier):
    with pytest.raises(ValueError, match="finite and positive"):
        a.PenaltyWeight(multiplier)


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


@pytest.mark.blas_layout
def test_ape_matches_naive_refit_loop():
    for label, n, K, orders, horizons in (("III", 120, 4, (1, 2, 3), (1, 2)),
                                         ("IX", 200, 20, (1, 2, 19), (10,))):
        series = _series(label, n)
        for k in orders:
            for h in horizons:
                for method in (a.PLUG_IN, a.DIRECT):
                    got = a.accumulated_prediction_error(series, k, h, method,
                                                         K)
                    want = _naive_ape(series, k, h, method, K)
                    assert got == pytest.approx(want, rel=1e-9), \
                        (label, k, h, method)


@pytest.mark.blas_layout
def test_ape_vanishes_on_noiseless_series_at_minimal_order():
    dgp = a.DgpSpec("noiseless", (1.5, -0.5), True, 2, 2, sigma2=0.0)
    series = a.generate(dgp, 80, seed=0, impulse=3.0)
    for h, method in ((1, a.PLUG_IN), (2, a.DIRECT), (2, a.PLUG_IN)):
        value = a.accumulated_prediction_error(series, 2, h, method, 2)
        assert value == pytest.approx(0.0, abs=1e-12), (h, method)


@pytest.mark.blas_layout
def test_ape_h1_plug_in_equals_direct_exactly():
    series = _series("VII", 300)
    for k in (1, 2, 3, 5):
        plug = a.accumulated_prediction_error(series, k, 1, a.PLUG_IN, 6)
        direct = a.accumulated_prediction_error(series, k, 1, a.DIRECT, 6)
        assert plug == direct


@pytest.mark.blas_layout
def test_ape_per_term_tracks_h_step_noise_variance():
    dgp = a.DGPS["III"]
    sigma2_2 = a.sigma_h_squared(a.model_for(dgp), 2)
    series = _series("III", 2000, r=1, seed=42)
    m = a.min_start_index(series, 10, 2)
    value = a.accumulated_prediction_error(series, 2, 2, a.DIRECT, 10)
    terms = (2000 - 2) - m + 1
    assert value / terms == pytest.approx(sigma2_2, rel=0.10)


@pytest.mark.blas_layout
def test_ape_builds_the_order_K_prefix_once(monkeypatch):
    # One shared prefix serves the start index and every order.
    series = _series("IX", 1000)
    want = {k: a.accumulated_prediction_error(series, k, 10, a.DIRECT, 20)
            for k in (10, 20)}
    real, built = a.selection._shared_prefix, []

    def shared_prefix(series, K):
        built.append(K)
        return real(series, K)

    monkeypatch.setattr(a.selection, "_shared_prefix", shared_prefix)
    for k in (20, 10):
        built.clear()
        assert a.accumulated_prediction_error(series, k, 10, a.DIRECT,
                                              20) == want[k]
        assert built == [20]
    built.clear()
    a.select_by_ape(series, 10, 20)
    assert built == [20]
    with pytest.raises(ValueError, match="^K and h must be at least 1$"):
        a.accumulated_prediction_error(series, 20, 0, a.PLUG_IN, 20)


@pytest.mark.blas_layout
def test_order_prefixes_are_views_of_the_shared_prefix():
    # Each order's rows, Gram prefix and gate mask equal those of a prefix
    # built for that order alone, from its own lag matrix.  The set-up's
    # mask gates the entries from K - 1 on, where every start index reads.
    flat = np.concatenate([np.zeros(5), np.ones(20)])
    for x, K in ((_series("IX", 300), 20), (flat, 3)):
        series, _, (rows, grams), read = a.selection._ape_prefix(x, K, 1)
        n = len(series)
        every = _singular_prefix(grams)
        assert read[:K - 1].all()
        for k in range(1, K + 1):
            alone = a.lag_matrix(series, k, k, n - 1)
            prefix = np.cumsum(alone[:, :, None] * alone[:, None, :], axis=0)
            assert np.array_equal(rows[:n - k, K - k:], alone)
            assert np.array_equal(grams[:n - k, K - k:, K - k:], prefix)
            want = _singular_grams(prefix).tolist()
            assert every[:n - k, k - 1].tolist() == want
            assert read[K - 1:n - k, k - 1].tolist() == want[K - 1:]


@pytest.mark.blas_layout
def test_ape_factors_each_prefix_chunk_once(monkeypatch):
    # One Cholesky factor per chunk of prefix entries serves every order,
    # so the number of factorizations does not grow with K, and no fit of
    # IX at n = 300 needs an LU solve.
    series = _series("IX", 300)
    calls = {"cholesky": 0, "solve": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    counts = []
    for K in (5, 10, 20):
        for name in calls:
            calls[name] = 0
        a.select_by_ape(series, 10, K)
        assert calls["solve"] == 0, K
        counts.append(calls["cholesky"])
    assert len(set(counts)) == 1 and counts[0] > 0
    # A single sum factors only the entries its window reads.
    calls["cholesky"] = 0
    a.accumulated_prediction_error(series, 4, 10, a.PLUG_IN, 20)
    assert calls["solve"] == 0 and 0 < calls["cholesky"] <= counts[0]


@pytest.mark.blas_layout
def test_ape_gates_every_order_in_one_sweep(monkeypatch):
    # One eigvalsh sweep over order K's anchors gates every order, so the
    # number of calls does not grow with K, and a single sum or start
    # index makes as many as a whole selection.
    series = _series("IX", 300)
    real, calls = np.linalg.eigvalsh, []

    def eigvalsh(grams):
        calls.append(len(grams))
        return real(grams)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    counts = []
    for K in (5, 10, 20):
        calls.clear()
        a.select_by_ape(series, 10, K)
        counts.append(len(calls))
    assert counts == [counts[0]] * 3
    for call in (lambda: a.min_start_index(series, 20, 10),
                 lambda: a.accumulated_prediction_error(series, 4, 10,
                                                        a.PLUG_IN, 20)):
        calls.clear()
        call()
        assert len(calls) == counts[0]


@pytest.mark.blas_layout
def test_ape_lu_fits_equal_the_lu_solve_of_their_prefix_entries(monkeypatch):
    # On VII at n = 1000 (K = 10) the order-10 one-step Gram at sample end
    # 20, rows j = 10..19, is too ill-conditioned for the shared factor
    # (condition number 5e7).  That one fit is the LU solve of its own
    # prefix entry and cross-products, bit for bit; every other fit is a
    # product with the entry's factor U, with G_k^-1 = U_k' U_k.
    dgp = a.DGPS["VII"]
    series = _series("VII", 1000)
    real, solved = np.linalg.solve, []

    def solve(grams, rhs):
        solved.append((grams, rhs))
        return real(grams, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    a.select_by_ape(series, dgp.horizon, dgp.max_order)
    [(grams, rhs)] = solved
    x = a.estimation._normalized(series)[0]
    rows = a.lag_matrix(x, 10, 10, 19)
    assert np.array_equal(grams, np.cumsum(
        rows[:, :, None] * rows[:, None, :], axis=0)[None, -1])
    assert np.array_equal(rhs[:, :, 0],
                          np.cumsum(rows * x[10:20, None], axis=0)[None, -1])
    K, n = dgp.max_order, x.size
    shared = a.selection._shared_prefix(x, K)
    prefix = shared[1].copy()
    exact, kept = a.selection._factor_prefix(
        shared[1], _singular_prefix(shared[1]), 0, n - 2)
    assert exact.sum() > 1 and np.array_equal(
        kept, prefix[np.flatnonzero(exact.any(axis=1))])
    for r in range(K, n - 2, 97):
        for k in (1, 4, K):
            U = shared[1][r, K - k:, K - k:]
            assert np.allclose(U.T @ U @ prefix[r, K - k:, K - k:],
                               np.eye(k), atol=1e-6)


@pytest.mark.blas_layout
def test_select_by_ape_memory_stays_bounded():
    # The factors overwrite the 3.3 MB Gram prefix in place, and entries
    # are factored a chunk at a time, so the peak (4.7 MB) stays near the
    # 4.5 MB that per-order LU solves took.
    dgp = a.DGPS["IX"]
    series = _series("IX", 1000)
    tracemalloc.start()
    try:
        a.select_by_ape(series, dgp.horizon, dgp.max_order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


@pytest.mark.blas_layout
def test_singular_stretch_names_the_sample_end_of_its_window():
    # A spike of 1e8 in a unit-scale walk leaves the order-3 Grams whose
    # rows hold it in only some columns singular.  With x_76 = 1e8 the
    # stretch reaches only one-step Grams, past the last direct 4-step
    # one; with x_61 = 1e8 it reaches both windows.  The sample ends were
    # recorded when each fit lag had a solve of its own.
    walk = np.random.default_rng(5).normal(size=80).cumsum()
    for spike, named in ((75, {"select": 77, (1, a.DIRECT): 77}),
                         (60, {"select": 62, (1, a.DIRECT): 62,
                               (4, a.DIRECT): 65, (4, a.PLUG_IN): 62})):
        series = walk.copy()
        series[spike] = 1e8
        for key in ("select", (1, a.DIRECT), (4, a.DIRECT), (4, a.PLUG_IN)):
            if key == "select":
                call = lambda: a.select_by_ape(series, 4, 3)
            else:
                call = lambda: a.accumulated_prediction_error(
                    series, 3, key[0], key[1], 3)
            if key not in named:
                call()
                continue
            with pytest.raises(a.SingularDesign,
                               match="at sample end i=%d$" % named[key]):
                call()


@pytest.mark.blas_layout
def test_ape_validates_candidate_order():
    series = _series("I", 100)
    with pytest.raises(ValueError):
        a.accumulated_prediction_error(series, 5, 1, a.DIRECT, 4)
    with pytest.raises(ValueError):
        a.accumulated_prediction_error(series, 1, 1, "other", 4)


@pytest.mark.blas_layout
def test_criteria_validate_candidate_order():
    series = _series("I", 100)
    for criterion in (a.plugin_criterion, a.direct_criterion):
        with pytest.raises(ValueError, match="1 <= k <= K"):
            criterion(series, 5, 1, 4)


@pytest.mark.blas_layout
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


@pytest.mark.blas_layout
def test_select_by_ape_h1_tie_goes_to_direct():
    # At h = 1 the two methods produce identical sums, so the final
    # comparison is an exact tie and must resolve to the direct label.
    for label in ("I", "III"):
        out = a.select_by_ape(_series(label, 300), 1, 5)
        assert out.method == a.DIRECT


@pytest.mark.blas_layout
def test_select_by_ape_equals_per_stage_sums_exactly():
    # The one-pass kernel must reproduce the three stages computed one at
    # a time, bit for bit.
    firsts = []
    for label, h, K in (("III", 2, 6), ("VII", 3, 6), ("X", 10, 8),
                        ("III", 1, 5)):
        series = _series(label, 300, r=1)
        out = a.select_by_ape(series, h, K)
        assert out.m_h == a.min_start_index(series, K, h)
        assert out.first_stage == {
            k: a.accumulated_prediction_error(series, k, 1, a.DIRECT, K)
            for k in range(1, K + 1)}
        k_first = out.orders["first_stage"]
        want = {(k, a.DIRECT): a.accumulated_prediction_error(
            series, k, h, a.DIRECT, K) for k in range(1, K + 1)}
        want.update({(k, a.PLUG_IN): a.accumulated_prediction_error(
            series, k, h, a.PLUG_IN, K) for k in range(k_first, K + 1)})
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
        with pytest.raises(a.NonFiniteSeries):
            a.min_start_index(broken, 4, 2)
        # The APE entry points check K and h before the series.
        for call in (lambda: a.select_by_ape(broken, 0, 4),
                     lambda: a.accumulated_prediction_error(broken, 2, 0,
                                                            a.DIRECT, 4),
                     lambda: a.min_start_index(broken, 0, 2)):
            with pytest.raises(ValueError,
                               match="^K and h must be at least 1$"):
                call()


def _residual_mse_of(series):
    fit = a.fit_direct(_series("III", 200), 2, 2)
    return a.residual_mse(series, fit, 2, 4)


@pytest.mark.blas_layout
@pytest.mark.parametrize("entry", [
    lambda x: a.select_by_ape(x, 2, 4),
    lambda x: a.select_by_criterion(x, 2, 4),
    lambda x: a.plugin_criterion(x, 2, 2, 4),
    lambda x: a.direct_criterion(x, 2, 2, 4),
    lambda x: a.accumulated_prediction_error(x, 2, 2, a.DIRECT, 4),
    lambda x: a.min_start_index(x, 4, 2),
    lambda x: a.fit_direct(x, 2, 2),
    lambda x: a.fit_one_step(x, 2),
    _residual_mse_of,
    lambda x: a.lag_matrix(x, 2, 2, 10),
    lambda x: a.predict(x, a.fit_direct(_series("III", 200), 2, 2)),
    a.difference,
], ids=["select_by_ape", "select_by_criterion", "plugin_criterion",
        "direct_criterion", "accumulated_prediction_error",
        "min_start_index", "fit_direct", "fit_one_step", "residual_mse",
        "lag_matrix", "predict", "difference"])
@pytest.mark.parametrize("shape", [(200, 1), (1, 200), (2, 100)])
def test_series_entry_points_reject_non_1d_series(entry, shape):
    series = _series("III", 200).reshape(shape)
    with pytest.raises(ValueError, match="series must be 1-D"):
        entry(series)


def test_series_whose_squares_overflow_select_as_unscaled():
    # Values near 2^547 have squares past the float range.  A series
    # enters the fits divided by a power of two, so its Grams stay finite:
    # it selects and fits as the unscaled series, and only the reported
    # squares (criteria, sums, mean squares) overflow, to inf.
    series = _series("III", 300)
    big = np.ldexp(series, 540)
    for select in (a.select_by_criterion, a.select_by_ape):
        out, ref = select(big, 2, 4), select(series, 2, 4)
        assert (out.k, out.method, out.orders) == \
            (ref.k, ref.method, ref.orders)
        assert set(out.criteria.values()) == {math.inf}
    fit = a.fit_direct(series, 2, 2)
    assert a.fit_direct(big, 2, 2) == fit
    assert a.residual_mse(big, fit, 2, 4) == math.inf
    assert a.accumulated_prediction_error(big, 3, 2, a.DIRECT, 3) \
        == math.inf


def test_tiny_series_select_as_unscaled():
    # At 2^-520 the Grams would be subnormal, and LU solves on them return
    # inf and NaN that the scale-free condition gate lets through.  Both
    # procedures must pick as for the unscaled series.
    for label, dgp in a.DGPS.items():
        series = _series(label, 400)
        tiny = np.ldexp(series, -520)
        for select in (a.select_by_ape, a.select_by_criterion):
            out = select(tiny, dgp.horizon, dgp.max_order)
            ref = select(series, dgp.horizon, dgp.max_order)
            assert (out.k, out.method) == (ref.k, ref.method), label


@pytest.mark.blas_layout
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


@pytest.mark.blas_layout
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


@pytest.mark.blas_layout
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
#: candidate implementation.  The single-candidate reads now run
#: select_by_criterion's pass, so only the first column still holds:
#: where it differs from the others ("SWS", "W-W"), a read raises the
#: first column's type.
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
    # select_by_criterion raises its recorded type, and both
    # single-candidate reads raise that same type, or all three return.
    dgp = a.DGPS["VII"]
    series = a.generate(dgp, 100, a.replication_seed(0, dgp, 100, 0))
    codes = {"S": a.SingularDesign, "W": a.WindowTooShort}
    for (K, h, k), by_n in SHORT_SERIES_ERRORS.items():
        for n, types in by_n.items():
            x = series[:n]
            calls = (lambda: a.select_by_criterion(x, h, K),
                     lambda: a.plugin_criterion(x, k, h, K),
                     lambda: a.direct_criterion(x, k, h, K))
            for call in calls:
                if types[0] == "-":
                    call()
                    continue
                with pytest.raises(codes[types[0]]) as caught:
                    call()
                assert type(caught.value) is codes[types[0]], (K, h, k, n)


def test_single_candidate_reads_equal_the_full_table():
    # plugin_criterion and direct_criterion read select_by_criterion's
    # pass, so each is its entry of the full table, bit for bit.
    for label in ("I", "III", "VII", "X"):
        dgp = a.DGPS[label]
        K = dgp.max_order
        for n in (60, 300):
            x = _series(label, n, r=1)
            for h in (1, dgp.horizon):
                criteria = a.select_by_criterion(x, h, K).criteria
                for k in range(1, K + 1):
                    assert (a.plugin_criterion(x, k, h, K)
                            == criteria[k, a.PLUG_IN]), (label, n, h, k)
                    assert (a.direct_criterion(x, k, h, K)
                            == criteria[k, a.DIRECT]), (label, n, h, k)


@pytest.mark.blas_layout
def test_underfitting_inflates_the_direct_criterion():
    dgp = a.DGPS["VII"]
    wins = 0
    for r in range(200):
        series = a.generate(dgp, 2000, a.replication_seed(606, dgp, 2000, r))
        wins += (a.direct_criterion(series, 1, 3, 10)
                 > a.direct_criterion(series, 2, 3, 10))
    assert wins >= 190


@pytest.mark.blas_layout
def test_stacked_criteria_equal_one_series_at_a_time():
    # The stack goes through batched Grams, gates, LU solves and one
    # residual sum buffer; every value must still be the single-series
    # one.  31 series at K = 10 and 4 at K = 20 cross a chunk boundary
    # (chunks of 29 and of 3 series).
    penalties = list(a.PENALTY_PRESETS.values())
    for label, h, R in (("I", 1, 4), ("III", 2, 4), ("VII", 3, 4),
                        ("IX", 10, 4), ("III", 2, 31)):
        K = a.DGPS[label].max_order
        stack = np.array([_series(label, 300, r=r, seed=8) for r in range(R)])
        block = _criteria(stack, h, K, penalties)
        for penalty, per_series in zip(penalties, block):
            for series, stages in zip(stack, per_series):
                alone = a.select_by_criterion(series, h, K, penalty)
                assert _outcome(*stages) == alone


def _noiseless_impulse_series():
    """Generator I without noise, from a unit impulse: x_{t+2} = -0.8 x_t
    exactly, so every Gram of order 3 or more is singular."""
    dgp = a.DgpSpec("I0", (0.0, -0.8), False, 2, 10, sigma2=0.0)
    return a.generate(dgp, 300, 0, impulse=1.0)


def test_padded_gate_agrees_with_the_scalar_gate():
    # Order by order, on the one-step rows and on the direct window at
    # h = 2, the padded Grams of _criteria pass the condition gate where
    # the order's own Gram passes the scalar gate of the oracles.
    x = _noiseless_impulse_series()
    n, K = x.size, 10
    lags = _lag_view(x[None], K)
    ks = np.arange(K, 0, -1)
    for last in (n - 1, n - 2):
        grams = _padded_grams(_suffix_sums(lags, lags, last, K)[:, ks - 1],
                              np.arange(K) < ks[:, None])
        scalar = [gram_is_invertible(X.T @ X) for X in
                  (a.lag_matrix(x, k, k, last) for k in ks)]
        assert (~_singular_grams(grams[0])).tolist() == scalar
        assert scalar == [False] * 8 + [True, True]


def test_singular_orders_fail_and_pass_as_candidate_by_candidate():
    # The values and errors of the candidate-by-candidate implementation.
    # With K = 10 the one-step Gram of order K is singular and every call
    # names it; with K = 2 every call returns, and the criteria the
    # noiseless fits make exactly zero are zero up to rounding.
    x = _noiseless_impulse_series()
    for h in (1, 2):
        calls = [lambda: a.select_by_criterion(x, h, 10)]
        calls += [lambda k=k, f=f: f(x, k, h, 10) for k in range(1, 11)
                  for f in (a.plugin_criterion, a.direct_criterion)]
        for call in calls:
            with pytest.raises(a.SingularDesign) as caught:
                call()
            assert type(caught.value) is a.SingularDesign
            assert str(caught.value) == \
                "singular Gram, one-step rows j=10..299"
    want = {(1, 1, a.PLUG_IN): 0.005985783763561544,
            (1, 1, a.DIRECT): 0.005985783763561544,
            (2, 1, a.PLUG_IN): 0.003843843843843846}
    for h in (1, 2):
        out = a.select_by_criterion(x, h, 2)
        for k in (1, 2):
            for method, value in ((a.PLUG_IN, a.plugin_criterion(x, k, h, 2)),
                                  (a.DIRECT, a.direct_criterion(x, k, h, 2))):
                expected = pytest.approx(want.get((h, k, method), 0.0),
                                         rel=1e-12, abs=1e-30)
                assert value == expected, (h, k, method)
                assert out.criteria[k, method] == expected, (h, k, method)
    assert (a.select_by_criterion(x, 1, 2).k,
            a.select_by_criterion(x, 1, 2).method) == (2, a.DIRECT)


@pytest.mark.blas_layout
def test_select_by_criterion_gates_and_solves_once_per_stage(monkeypatch):
    # One padded pass per stage: one eigvalsh and one LU solve for the
    # one-step fits and one each for the direct window, whatever K (a
    # single series is one chunk however large K is).  eigvalsh sees
    # only each series' order-K Gram, whose minimum certifies every
    # lower order here (estimation._singular_orders), not K matrices.
    calls = {"eigvalsh": 0, "solve": 0}
    matrices = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "eigvalsh":
                matrices.append(int(np.prod(np.shape(args[0])[:-2])))
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    series = _series("X", 300)
    for K in (5, 20, 30, 40):
        for name in calls:
            calls[name] = 0
        matrices.clear()
        a.select_by_criterion(series, 2, K)
        assert calls == {"eigvalsh": 2, "solve": 2}, K
        assert matrices == [1, 1], K
    # A stacked cell: 10 IX series in chunks of 3 (K = 20), one anchor
    # per series and stage.
    dgp = a.DGPS["IX"]
    stack = np.array([_series("IX", 1000, r=r) for r in range(10)])
    matrices.clear()
    _criteria(stack, dgp.horizon, dgp.max_order, (a.PENALTY_PRESETS["B"],))
    assert sum(matrices) == 2 * 10


@pytest.mark.blas_layout
def test_criteria_memory_stays_bounded_on_a_large_stack():
    # 32 series of 1000 values at K = 20: every order's padded Grams and
    # residuals at once would take tens of megabytes; chunks of 3 series
    # with every order, and blocks of residuals, keep the peak near
    # 1.8 MB.
    dgp = a.DGPS["IX"]
    stack = np.array([_series("IX", 1000, r=r) for r in range(32)])
    tracemalloc.start()
    try:
        _criteria(stack, dgp.horizon, dgp.max_order,
                  (a.PENALTY_PRESETS["B"],))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.blas_layout
def test_criteria_memory_of_one_series_grows_as_k_cubed():
    # A chunk holds at least one series, and one series' padded arrays
    # hold every order's K x K matrices: at K = 40 the peak is about
    # 4.2 MB, against 0.6 MB at K = 20.
    series = _series("IX", 2000)
    tracemalloc.start()
    try:
        a.select_by_criterion(series, a.DGPS["IX"].horizon, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


@pytest.mark.blas_layout
def test_select_by_criterion_outcome_structure():
    series = _series("X", 600)
    out = a.select_by_criterion(series, 2, 6)
    assert out.m_h is None
    assert set(out.first_stage) == set(range(1, 7))
    assert len(out.criteria) == 12
    assert (out.k, out.method) in out.criteria
    assert out.orders["plug_in"] >= out.orders["first_stage"]


@pytest.mark.blas_layout
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

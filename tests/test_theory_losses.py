"""Asymptotic losses: oracle equivalences, frozen tables, tie handling."""

import dataclasses
import math

import numpy as np
import pytest

import arstep as a
from arstep import theory_losses
from oracles import hand_impulse, lyapunov_autocovariances, trace_costs
from sampling import (NEAR_UNIT_ROOTS, sample_stationary_models,
                      sample_unit_root_models, unit_root_model_with_roots)

X_MODEL = a.UnitRootArModel((1.5, -0.5), 1.0)
CUBIC_MODEL = a.UnitRootArModel((0.9, -0.81, 0.91), 1.0)


def test_autocovariances_match_lyapunov_oracle():
    for model in sample_unit_root_models(30, seed=101):
        got = a.autocovariances(model, 8).gamma
        want = lyapunov_autocovariances(model.stationary, model.sigma2, 8)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    for model in sample_stationary_models(30, seed=102):
        got = a.autocovariances(model, 8).gamma
        want = lyapunov_autocovariances(model.coeffs, model.sigma2, 8)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.blas_layout
def test_near_unit_ar1_autocovariances_match_the_closed_form():
    # gamma(m) = sigma^2 rho^m / (1 - rho^2), with 1 - rho^2 formed as
    # (1 - rho)(1 + rho) so that the reference is exact to rounding.
    lags = np.arange(61)
    for rho in (0.5, -0.9, 0.99, 0.9999, 0.99999, 0.999999, -0.999999):
        got = a.autocovariances(a.StationaryArModel((rho,), 2.5), 60).gamma
        want = 2.5 * rho ** lags / ((1.0 - rho) * (1.0 + rho))
        np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=str(rho))


def test_autocovariance_matrix_is_toeplitz():
    table = a.autocovariances(CUBIC_MODEL, 3)
    mat = table.matrix(4)
    for i in range(4):
        for j in range(4):
            assert mat[i, j] == table.gamma[abs(i - j)]


def test_autocovariance_matrix_rejects_negative_dimensions():
    table = a.autocovariances(a.model_for(a.DGPS["III"]), 4)
    assert table.matrix(0).shape == (0, 0)
    for dim in (-1, -4, -6):
        with pytest.raises(ValueError, match="nonnegative"):
            table.matrix(dim)


def test_costs_match_the_per_dimension_trace_oracle():
    # Every dimension of every generator's table, plug-in costs below
    # the stationary order included, against solve-based traces on
    # Lyapunov autocovariances.
    for dgp in a.DGPS.values():
        model = a.model_for(dgp)
        unit = isinstance(model, a.UnitRootArModel)
        alpha = model.stationary if unit else model.coeffs
        levels = model.levels if unit else model.coeffs
        dims = dgp.max_order - unit
        gamma = lyapunov_autocovariances(alpha, 1.0, dgp.horizon + dims)
        for h in range(1, dgp.horizon + 1):
            w = hand_impulse(levels, h)
            table = a.loss_table(model, h, dgp.max_order)
            for d in range(1, dims + 1):
                want = trace_costs(alpha, gamma, w, d)
                if unit:
                    got = (a.plugin_cost(model, h, d + 1),
                           a.direct_cost(model, h, d + 1))
                else:
                    got = (table[d, a.PLUG_IN].value,
                           table[d, a.DIRECT].value)
                for value, trace in zip(got, want):
                    if unit or math.isfinite(value):
                        assert value == pytest.approx(
                            trace * model.sigma2, rel=1e-12), (dgp.id, h, d)


@pytest.mark.blas_layout
@pytest.mark.parametrize("roots", NEAR_UNIT_ROOTS)
def test_near_unit_loss_tables_match_the_trace_oracle(roots):
    # A stationary root 1e-5 inside the unit circle: every finite loss
    # of the table is the common term plus a cost that matches the
    # solve-based traces on Lyapunov autocovariances.
    model = unit_root_model_with_roots(roots)
    h, K = 3, 8
    w = hand_impulse(model.levels, h)
    common = 2.0 * model.sigma2 * float(np.sum(w)) ** 2
    gamma = lyapunov_autocovariances(model.stationary, 1.0, h + K)
    table = a.loss_table(model, h, K)
    checked = 0
    for k in range(2, K + 1):
        costs = trace_costs(model.stationary, gamma, w, k - 1)
        for method, cost in zip((a.PLUG_IN, a.DIRECT), costs):
            value = table[k, method].value
            if math.isfinite(value):
                assert value - common == pytest.approx(
                    cost * model.sigma2, rel=1e-8), (k, method)
                checked += 1
    assert checked >= K


@pytest.mark.parametrize("gamma, dim", [
    (lambda L: np.ones(L + 1), 2),
    (lambda L: np.r_[1.0, 0.9, np.zeros(L - 1)], 3),
    (lambda L: np.full(L + 1, np.nan), 1),
])
def test_singular_gamma_names_the_first_dimension_not_positive_definite(
        monkeypatch, gamma, dim):
    monkeypatch.setattr(theory_losses, "_gamma", lambda model, L: gamma(L))
    message = "dimension %d is not positive definite" % dim
    with pytest.raises(a.SingularGamma, match=message):
        a.loss_table(CUBIC_MODEL, 2, 8)
    with pytest.raises(a.SingularGamma, match=message):
        a.direct_cost(CUBIC_MODEL, 2, 5)


def _times_power_of_two(value, m):
    """value * 2^m, rounded once; inf of its sign where that overflows."""
    try:
        return math.ldexp(value, m)
    except OverflowError:
        return math.copysign(math.inf, value)


@pytest.mark.blas_layout
@pytest.mark.parametrize("m", [-500, 500, 509])
def test_theory_values_scale_by_powers_of_four(m):
    # At sigma2 * 4^m every loss, autocovariance and sigma_h^2 is the one
    # at sigma2 times 4^m, rounded once: they are computed in units of a
    # power of four, so no RuntimeWarning is raised, no digit is lost to
    # subnormals at 2^-1000, and inf appears only where the product
    # exceeds the float range (at 2^1018 and sigma2 = 25, above 64).
    pairs = []
    for dgp in a.DGPS.values():
        base = a.model_for(dgp)
        scaled = a.model_for(dataclasses.replace(
            dgp, sigma2=math.ldexp(dgp.sigma2, 2 * m)))
        for h in (1, dgp.horizon):
            want = a.loss_table(base, h, dgp.max_order)
            got = a.loss_table(scaled, h, dgp.max_order)
            pairs += [(got[key].value, want[key].value) for key in want]
            pairs.append((a.sigma_h_squared(scaled, h),
                          a.sigma_h_squared(base, h)))
        pairs += zip(a.autocovariances(scaled, 30).gamma.tolist(),
                     a.autocovariances(base, 30).gamma.tolist())
    for got, want in pairs:
        assert got == _times_power_of_two(want, 2 * m), (got, want)
    if m == 509:  # both sides of the float range are reached
        assert any(math.isinf(got) for got, want in pairs
                   if math.isfinite(want))
        assert any(math.isfinite(got) for got, _ in pairs)


@pytest.mark.blas_layout
def test_near_unit_model_whose_yule_walker_solve_fails_raises_singular_gamma():
    # A valid stationary AR(8), four conjugate root pairs 10^-7.25 inside
    # the unit circle: the Yule-Walker solve gives no finite positive
    # gamma(0) (under the default, Nehalem and Haswell kernels alike).
    radius = 1.0 - 10.0 ** -7.25
    roots = [radius * np.exp(sign * 1j * (2.8 + 0.37 * j))
             for j in range(4) for sign in (1, -1)]
    model = a.StationaryArModel(-np.real(np.poly(roots))[1:])
    assert model.p == 8
    message = "no solution with finite positive gamma"
    with pytest.raises(a.SingularGamma, match=message):
        a.autocovariances(model, 3)
    with pytest.raises(a.SingularGamma, match=message):
        a.loss(model, 2, 8, a.DIRECT)


def test_cost_fixture_values():
    assert a.plugin_cost(X_MODEL, 2, 2) == pytest.approx(4.0, abs=1e-12)
    assert a.direct_cost(X_MODEL, 2, 2) == pytest.approx(4.75, abs=1e-12)
    diff = a.direct_cost(X_MODEL, 2, 2) - a.plugin_cost(X_MODEL, 2, 2)
    assert diff == pytest.approx(0.75, abs=1e-12)


def test_costs_vanish_at_order_one():
    for model in sample_unit_root_models(10, seed=55):
        for h in (1, 2, 3):
            assert a.plugin_cost(model, h, 1) == 0.0
            assert a.direct_cost(model, h, 1) == 0.0


def test_closed_form_h2_fixture():
    rw = a.UnitRootArModel((1.0,), sigma2=2.0)
    assert a.closed_form_h2(rw, 2, a.PLUG_IN) == pytest.approx(2.0)
    assert a.closed_form_h2(rw, 2, a.DIRECT) == pytest.approx(4.0)


def test_costs_match_closed_forms_at_h2():
    for model in sample_unit_root_models(60, seed=515):
        for k in range(max(2, model.p + 1), 7):
            f1 = a.plugin_cost(model, 2, k)
            f2 = a.direct_cost(model, 2, k)
            assert f1 == pytest.approx(
                a.closed_form_h2(model, k, a.PLUG_IN), rel=1e-8)
            assert f2 == pytest.approx(
                a.closed_form_h2(model, k, a.DIRECT), rel=1e-8)


def test_cost_difference_identity_at_h2():
    # The two costs differ by (1 - alpha_{k-1}^2) * sigma^2, with the
    # convention alpha_j = 0 beyond the model order.
    for model in sample_unit_root_models(60, seed=99):
        alpha = model.stationary
        for k in range(max(2, model.p + 1), 7):
            a_km1 = alpha[k - 2] if k - 2 < len(alpha) else 0.0
            want = (1.0 - a_km1 * a_km1) * model.sigma2
            got = a.direct_cost(model, 2, k) - a.plugin_cost(model, 2, k)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_h1_costs_collapse_to_k_minus_one():
    for model in sample_unit_root_models(40, seed=77):
        for k in range(1, 9):
            want = (k - 1) * model.sigma2
            tol = 1e-10 * max(1.0, want)
            assert abs(a.plugin_cost(model, 1, k) - want) <= tol
            assert abs(a.direct_cost(model, 1, k) - want) <= tol


def test_direct_cost_never_beats_plugin_cost():
    for model in sample_unit_root_models(40, seed=4242):
        for h in range(2, 7):
            for k in range(max(2, model.p + 1), 7):
                f1 = a.plugin_cost(model, h, k)
                f2 = a.direct_cost(model, h, k)
                assert f2 - f1 >= -1e-10 * max(1.0, abs(f1))


def test_loss_examples():
    rw = a.UnitRootArModel((1.0,), sigma2=3.0)
    assert a.loss(rw, 1, 1, a.PLUG_IN).value == pytest.approx(6.0, abs=1e-12)
    assert a.loss(X_MODEL, 2, 2, a.PLUG_IN).value == pytest.approx(
        16.5, abs=1e-10)
    below = a.loss(CUBIC_MODEL, 3, 1, a.DIRECT)
    assert math.isinf(below.value) and below.value > 0


def test_loss_infinite_exactly_below_minimal_order():
    for model in sample_unit_root_models(25, seed=31):
        p1 = model.p + 1
        for h in (1, 2, 4):
            ph = a.direct_coefficients(model, h).p_h
            for k in range(1, 7):
                plug = a.loss(model, h, k, a.PLUG_IN).value
                direct = a.loss(model, h, k, a.DIRECT).value
                assert math.isinf(plug) == (k < p1)
                assert math.isinf(direct) == (k < ph)


def test_loss_common_term_plus_cost():
    # Losses and stand-alone costs share one cost kernel, so the sum is
    # exact.
    model = CUBIC_MODEL
    for h in (2, 3, 4):
        b = a.level_ma_weights(model, h - 1)
        common = 2.0 * model.sigma2 * float(b.sum()) ** 2
        for k in (3, 4, 5):
            for method, cost in ((a.PLUG_IN, a.plugin_cost),
                                 (a.DIRECT, a.direct_cost)):
                got = a.loss(model, h, k, method).value
                assert got == common + cost(model, h, k)


def test_costs_reject_horizons_below_one():
    for cost in (a.plugin_cost, a.direct_cost):
        for h in (0, -1):
            for k in (1, 3):
                with pytest.raises(ValueError, match="horizon"):
                    cost(X_MODEL, h, k)


FROZEN_BEST = {
    "I": ((1, a.DIRECT), 25.0),
    "II": ((2, a.PLUG_IN), 50.000000000000014),
    "III": ((2, a.DIRECT), 75.0),
    "IV": ((3, a.PLUG_IN), 119.50000000000001),
    "V": ((1, a.DIRECT), 67.62569060773481),
    "VI": ((2, a.PLUG_IN), 34.18559999999998),
    "VII": ((2, a.DIRECT), 223.39397905759162),
    "VIII": ((3, a.PLUG_IN), 264.1396),
    "IX": ((2, a.DIRECT), 75.0),
    "X": ((2, a.PLUG_IN), 16598.84204864502),
}


def test_best_combinations_frozen_registry_table():
    for label, (pair, value) in FROZEN_BEST.items():
        dgp = a.DGPS[label]
        model = a.model_for(dgp)
        assert a.best_combinations(model, dgp.horizon, dgp.max_order) \
            == {pair}, label
        table = a.loss_table(model, dgp.horizon, dgp.max_order)
        assert table[pair].value == pytest.approx(value, rel=1e-9), label


def test_loss_table_routes_stationary_models():
    # A stationary generator's loss has no unit-root common term and
    # uses full k-dimensional traces.
    model = a.model_for(a.DGPS["V"])
    assert isinstance(model, a.StationaryArModel)
    entry = a.loss_table(model, 3, 4)[(1, a.DIRECT)]
    direct = a.loss(model, 3, 1, a.DIRECT)
    assert entry.value == direct.value


def test_stationary_loss_minimal_orders():
    model = a.model_for(a.DGPS["VI"])  # stable AR(2)
    assert math.isinf(a.loss(model, 3, 1, a.PLUG_IN).value)
    assert np.isfinite(a.loss(model, 3, 2, a.PLUG_IN).value)


def test_stationary_losses_and_costs_equal_their_table_entries():
    # loss, plugin_cost and direct_cost take either model kind; a stable
    # model's loss has no common term, so each finite entry is its cost.
    for label in ("I", "II", "V", "VI"):
        model = a.model_for(a.DGPS[label])
        for h in (1, a.DGPS[label].horizon):
            table = a.loss_table(model, h, 10)
            for (k, method), entry in table.items():
                assert entry == a.loss(model, h, k, method), (label, h, k)
                if math.isfinite(entry.value):
                    cost = (a.plugin_cost if method == a.PLUG_IN
                            else a.direct_cost)(model, h, k)
                    assert entry.value == cost, (label, h, k, method)


def test_best_combinations_reports_exact_ties():
    rw = a.UnitRootArModel((1.0,))
    assert a.best_combinations(rw, 1, 3) == {(1, a.PLUG_IN), (1, a.DIRECT)}


def test_best_combinations_requires_a_finite_loss():
    with pytest.raises(ValueError):
        a.best_combinations(CUBIC_MODEL, 1, 2)  # K below minimal order 3


FROZEN_GAPS = {
    0.1: 0.16634178973382552,
    0.2: 0.28150320826132846,
    0.3: 0.3575173697068226,
    0.4: 0.39805785629786383,
    0.5: 0.40170454545454515,
    0.6: 0.36085524519715606,
    0.7: 0.2574212381246084,
    0.8: 0.05425575509861158,
    0.9: -0.3204254007713545,
}


def test_minimal_order_cost_gap_frozen_values():
    for a1, want in FROZEN_GAPS.items():
        assert a.minimal_order_cost_gap(a1) == pytest.approx(want, rel=1e-9)


def test_quartic_family_structure():
    model = a.quartic_family(0.5)
    assert isinstance(model, a.UnitRootArModel)
    assert model.p == 3 and model.sigma2 == 1.0
    # three-step prediction needs only order 3 while one-step needs 4
    assert a.direct_coefficients(model, 3).p_h == 3
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            a.quartic_family(bad)

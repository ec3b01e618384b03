"""Least-squares machinery against longhand elimination and exact algebra."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import arstep as a
from arstep.estimation import (_gated_solve, _singular_grams,
                               _singular_prefix)
from oracles import (gram_is_invertible, least_squares_by_elimination,
                     substitution_coefficients)

CUBIC = (0.9, -0.81, 0.91)


def _noiseless_series(levels, n, impulse=5.0):
    # Every levels tuple passed here has a unit root.
    dgp = a.DgpSpec("noiseless", tuple(levels), True, 1, 1, sigma2=0.0)
    return a.generate(dgp, n, seed=0, impulse=impulse)


def test_lag_matrix_rows_are_reversed_windows():
    series = np.arange(1.0, 11.0)
    rows = a.lag_matrix(series, 3, 3, 9)
    assert rows.shape == (7, 3)
    np.testing.assert_array_equal(rows[0], [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(rows[-1], [9.0, 8.0, 7.0])
    assert a.lag_matrix(series, 3, 5, 4).shape == (0, 3)
    for k, first, last, message in (
            (3, 2, 9, "reach before the sample"),
            (0, 3, 9, "^k must be an integer of at least 1, not 0$"),
            (3, 3, 11, "exceeds the series length")):
        with pytest.raises(ValueError, match=message):
            a.lag_matrix(series, k, first, last)


def test_fit_one_step_recovers_noiseless_recursion():
    series = _noiseless_series(CUBIC, 300)
    fit = a.fit_one_step(series, 3)
    np.testing.assert_allclose(fit.coeffs, CUBIC, rtol=0, atol=1e-7)
    assert fit.method == a.PLUG_IN
    assert fit.h == 1
    assert fit.k == 3
    assert fit.sample_end == 300


def test_plug_in_multi_on_exact_coefficients():
    exact = a.FittedCoefficients(coeffs=CUBIC, k=3, h=1, method=a.PLUG_IN,
                                 sample_end=300)
    multi = a.plug_in_multi(exact, 3)
    np.testing.assert_allclose(multi.coeffs, (0.181, 0.819, 0.0),
                               rtol=0, atol=1e-12)
    assert multi.h == 3 and multi.method == a.PLUG_IN

    x2 = a.FittedCoefficients(coeffs=(1.5, -0.5), k=2, h=1,
                              method=a.PLUG_IN, sample_end=100)
    np.testing.assert_allclose(a.plug_in_multi(x2, 2).coeffs,
                               (1.75, -0.75), rtol=0, atol=1e-14)
    assert a.plug_in_multi(x2, 1) == x2


def test_plug_in_multi_requires_one_step_input():
    direct = a.FittedCoefficients(coeffs=(1.0,), k=1, h=2, method=a.DIRECT,
                                  sample_end=50)
    with pytest.raises(ValueError):
        a.plug_in_multi(direct, 2)
    one_step = a.FittedCoefficients(coeffs=(1.0,), k=1, h=1,
                                    method=a.PLUG_IN, sample_end=50)
    with pytest.raises(ValueError,
                       match="^h must be an integer of at least 1, not 0$"):
        a.plug_in_multi(one_step, 0)


def test_plug_in_power_matches_companion_matrix_power():
    rng = np.random.default_rng(21)
    series = rng.normal(size=90).cumsum()
    one = a.fit_one_step(series, 4)
    coeffs = np.asarray(one.coeffs)
    for h in (2, 3, 5):
        multi = a.plug_in_multi(one, h)
        power = np.linalg.matrix_power(a.companion_matrix(coeffs), h - 1)
        np.testing.assert_allclose(multi.coeffs, power @ coeffs,
                                   rtol=1e-10, atol=1e-12)


def test_fit_direct_noiseless_cubic_three_step():
    series = _noiseless_series(CUBIC, 400)
    fit = a.fit_direct(series, 2, 3)
    np.testing.assert_allclose(fit.coeffs, (0.181, 0.819), rtol=0, atol=1e-6)
    assert fit.method == a.DIRECT and fit.h == 3


def test_fit_sample_size_preconditions():
    series = np.arange(10.0)
    with pytest.raises(a.SingularDesign):
        a.fit_one_step(series, 3, i=5)
    with pytest.raises(a.SingularDesign):
        a.fit_direct(series, 3, 2, i=6)
    with pytest.raises(ValueError,
                       match="^h must be an integer of at least 1, not 0$"):
        a.fit_direct(series, 2, 0)
    with pytest.raises(ValueError, match="^sample end 11 exceeds"):
        a.fit_direct(series, 2, 2, i=11)


def test_fits_match_longhand_elimination():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        n = int(rng.integers(40, 120))
        k = int(rng.integers(1, 5))
        h = int(rng.integers(1, 4))
        series = rng.normal(size=n).cumsum()
        one = a.fit_one_step(series, k)
        want = least_squares_by_elimination(
            a.lag_matrix(series, k, k, n - 1), series[k:n])
        np.testing.assert_allclose(one.coeffs, want, rtol=1e-9, atol=1e-9)
        direct = a.fit_direct(series, k, h)
        want = least_squares_by_elimination(
            a.lag_matrix(series, k, k, n - h), series[k + h - 1:n])
        np.testing.assert_allclose(direct.coeffs, want, rtol=1e-9, atol=1e-9)


def test_fit_raises_on_rank_deficient_design():
    with pytest.raises(a.SingularDesign):
        a.fit_one_step(np.zeros(40), 2)
    # a pure trend has rank-1 lag windows of order 2 once differenced
    series = _noiseless_series((1.5, -0.5), 120)
    with pytest.raises(a.SingularDesign):
        a.fit_one_step(series, 3)


@pytest.mark.blas_layout
def test_batched_gate_agrees_with_scalar_gate_and_rejects_non_finite():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 3))
    finite = [x.T @ x, np.zeros((3, 3)), -np.eye(3),
              np.diag([1.0, 1.0, 1e-14]), np.diag([1.0, 1.0, 1e-12])]
    bad = _singular_grams(np.array(finite))
    assert list(bad) == [not gram_is_invertible(g)
                         for g in finite]
    for value in (np.nan, np.inf):
        gram = np.eye(3)
        gram[0, 1] = gram[1, 0] = value
        assert _singular_grams(np.array([np.eye(3), gram])).tolist() == \
            [False, True]


@pytest.mark.blas_layout
def test_batched_gates_fail_non_finite_grams_without_raising():
    # eigvalsh raises on an all-infinite matrix; both batched gates must
    # mark such Grams bad instead.  The stack is a Gram prefix with some
    # entries (anchors 0 and 7 among them) overwritten by non-finite
    # matrices, and a prefix whose series turns non-finite part-way.
    rows = np.cumsum(np.random.default_rng(4).normal(size=(60, 3)), axis=0)
    prefix = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    fills = {0: np.nan, 7: np.inf, 10: -np.inf, 33: np.nan, 59: np.inf}
    for index, value in fills.items():
        prefix[index] = value
    expected = [index in fills
                or not gram_is_invertible(prefix[index])
                for index in range(60)]
    assert _singular_grams(prefix).tolist() == expected
    bad = _singular_prefix(prefix)
    assert bad[:, -1].tolist() == expected
    for k in (1, 2):
        assert bad[:, k - 1].tolist() == \
            _singular_grams(prefix[:, 3 - k:, 3 - k:]).tolist()
    assert sum(expected) == len(fills) + 1  # entry 1 has rank two
    mixed = np.array([np.eye(3), np.full((3, 3), -np.inf), np.eye(3)])
    assert _singular_grams(mixed).tolist() == [False, True, False]
    for value in (np.nan, np.inf):
        series = rows[:, 0].copy()
        series[40] = value
        with np.errstate(invalid="ignore"):
            grams = a.selection._shared_prefix(series, 3)[1]
        bad = _singular_prefix(grams)
        for k in (1, 2, 3):
            assert bad[:, k - 1].tolist() == \
                _singular_grams(grams[:, 3 - k:, 3 - k:]).tolist()
            # x_41 enters order k's rows at j = 41, prefix entry 41 - k.
            assert bad[41 - k:, k - 1].all()
            assert not bad[2:41 - k, k - 1].any()


@pytest.mark.blas_layout
def test_scalar_gate_rejects_non_finite_grams():
    for value in (np.nan, np.inf, -np.inf):
        for gram in (np.full((3, 3), value), np.eye(3)):
            gram[0, 1] = gram[1, 0] = value
            assert not gram_is_invertible(gram)
            with pytest.raises(a.SingularDesign, match="^gram$"):
                _gated_solve(gram, np.ones((3, 1)), lambda j: "gram")
    np.testing.assert_array_equal(
        _gated_solve(np.diag([2.0, 4.0]), [[1.0, 2.0], [1.0, 2.0]], None),
        [[0.5, 1.0], [0.25, 0.5]])


def test_one_step_fit_is_the_relabelled_h1_direct_fit():
    series = np.random.default_rng(9).normal(size=80).cumsum()
    for k, i in ((1, 80), (3, 80), (4, 40)):
        one = a.fit_one_step(series, k, i=i)
        direct = a.fit_direct(series, k, 1, i=i)
        assert one.coeffs == direct.coeffs
        assert (one.k, one.h, one.sample_end) == (k, 1, i)
        assert (one.method, direct.method) == (a.PLUG_IN, a.DIRECT)


def test_fits_reject_non_finite_series():
    series = np.random.default_rng(4).normal(size=50).cumsum()
    for value in (np.nan, np.inf):
        broken = series.copy()
        broken[30] = value
        with pytest.raises(a.NonFiniteSeries):
            a.fit_one_step(broken, 2)
        with pytest.raises(a.NonFiniteSeries):
            a.fit_direct(broken, 2, 3)
        with pytest.raises(a.NonFiniteSeries):
            a.residual_mse(broken, a.fit_direct(series, 2, 3), 3, 4)


def test_h1_direct_fit_is_the_one_step_fit():
    rng = np.random.default_rng(8)
    series = rng.normal(size=70).cumsum()
    one = a.fit_one_step(series, 3)
    dir1 = a.fit_direct(series, 3, 1)
    np.testing.assert_allclose(one.coeffs, dir1.coeffs, rtol=1e-13)
    assert a.residual_mse(series, one, 1, 5) == pytest.approx(
        a.residual_mse(series, dir1, 1, 5), rel=1e-13)


@pytest.mark.blas_layout
def test_residual_mse_window_and_divisor():
    rng = np.random.default_rng(3)
    series = rng.normal(size=60).cumsum()
    fit = a.fit_one_step(series, 2)
    coef = np.asarray(fit.coeffs)

    def longhand(K):
        total = 0.0
        # windows x_j(2) for j = K..n-h (1-based), targets x_{j+1}; note
        # the divisor is one less than the number of residuals.
        for j in range(K, 60):
            window = series[j - 2:j][::-1]
            total += (series[j] - coef @ window) ** 2
        return total / (60 - 1 - K)

    assert a.residual_mse(series, fit, 1, 3) == pytest.approx(
        longhand(3), rel=1e-12)
    assert a.residual_mse(series, fit, 1, 5) == pytest.approx(
        longhand(5), rel=1e-12)


@pytest.mark.blas_layout
def test_residual_mse_sums_its_squares_exactly():
    # Zero coefficients leave the targets x_2..x_n as residuals: 998 unit
    # squares and one of 2^54.  Their exact sum rounds to 2^54 + 1000;
    # pairwise summation adds the units in groups and reads 2^54 + 988.
    # The criteria sum their residuals through the same kernel.
    series = np.ones(1000)
    series[500] = 2.0 ** 27
    zero = a.FittedCoefficients(coeffs=(0.0,), k=1, h=1, method=a.DIRECT,
                                sample_end=1000)
    squares = series[1:] ** 2
    assert np.sum(squares) != math.fsum(squares)
    assert a.residual_mse(series, zero, 1, 1) == math.fsum(squares) / 998


def test_hand_built_coefficients_must_be_finite():
    # A NaN or infinite coefficient is a ValueError when the fit is
    # built, as by dataclasses.replace, so no fit holds one.
    fit = a.fit_one_step(np.random.default_rng(3).normal(size=50).cumsum(), 1)
    for value in (np.nan, np.inf, -np.inf):
        for build in (lambda: a.FittedCoefficients(
                          coeffs=(value,), k=1, h=1, method=a.PLUG_IN,
                          sample_end=50),
                      lambda: dataclasses.replace(fit, coeffs=(value,))):
            with pytest.raises(ValueError, match="^coefficients hold NaN "
                               "or infinite values$") as caught:
                build()
            assert type(caught.value) is ValueError
    # A powering past the float range is one.
    huge = dataclasses.replace(fit, coeffs=(1e200,))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^coefficients hold NaN or infinite values$"):
        a.plug_in_multi(huge, 2)


@pytest.mark.blas_layout
def test_residual_mse_overflows_to_inf_without_a_warning():
    series = np.random.default_rng(3).normal(size=50).cumsum()
    huge = a.FittedCoefficients(coeffs=(1e308,), k=1, h=1, method=a.DIRECT,
                                sample_end=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert a.residual_mse(series, huge, 1, 2) == math.inf


@pytest.mark.blas_layout
def test_residual_mse_validations():
    series = np.arange(8.0)
    fit = a.fit_one_step(series, 2)
    with pytest.raises(a.WindowTooShort):
        a.residual_mse(series, fit, 1, 7)
    with pytest.raises(ValueError):
        a.residual_mse(series, fit, 2, 4)  # horizon mismatch
    with pytest.raises(ValueError):
        a.residual_mse(series, fit, 1, 1)  # cap below fitted order
    with pytest.raises(ValueError, match="^sample end 8 exceeds"):
        a.residual_mse(series[:6], fit, 1, 2)


def test_fitted_ma_weights_examples():
    rw = a.FittedCoefficients(coeffs=(1.0,), k=1, h=1, method=a.PLUG_IN,
                              sample_end=50)
    np.testing.assert_array_equal(a.fitted_ma_weights(rw, 5), np.ones(6))
    cubic = a.FittedCoefficients(coeffs=CUBIC, k=3, h=1, method=a.PLUG_IN,
                               sample_end=50)
    np.testing.assert_allclose(a.fitted_ma_weights(cubic, 2), (1.0, 0.9, 0.0),
                               rtol=0, atol=1e-12)
    flat = a.FittedCoefficients(coeffs=(0.0, 0.0), k=2, h=1,
                                method=a.PLUG_IN, sample_end=50)
    np.testing.assert_array_equal(a.fitted_ma_weights(flat, 3), (1, 0, 0, 0))
    direct = a.FittedCoefficients(coeffs=(1.0,), k=1, h=2, method=a.DIRECT,
                                  sample_end=50)
    with pytest.raises(ValueError, match="needs a one-step fit"):
        a.fitted_ma_weights(direct, 3)

"""Forecast evaluation: tail products, guards, iterated equivalence."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arstep as a
from oracles import iterated_forecast


def test_predict_constant_coefficient_returns_last_value():
    series = np.array([2.0, 5.0, 7.0])
    fit = a.FittedCoefficients(coeffs=(1.0,), k=1, h=1, method=a.PLUG_IN,
                               sample_end=3)
    forecast = a.predict(series, fit)
    assert forecast.value == 7.0
    assert forecast.origin == 3
    assert forecast.horizon == 1
    assert forecast.spec == a.PredictorSpec(k=1, method=a.PLUG_IN, h=1)


def test_predict_is_the_dot_product_with_the_reversed_tail():
    series = np.array([3.0, 2.0, 1.0])
    fit = a.FittedCoefficients(coeffs=(0.181, 0.819, 0.0), k=3, h=3,
                               method=a.PLUG_IN, sample_end=3)
    got = a.predict(series, fit).value
    assert got == pytest.approx(0.181 * 1.0 + 0.819 * 2.0, rel=1e-15)


def test_predict_earlier_origin():
    series = np.arange(1.0, 9.0)
    fit = a.FittedCoefficients(coeffs=(2.0,), k=1, h=1, method=a.DIRECT,
                               sample_end=5)
    forecast = a.predict(series, fit, origin=5)
    assert forecast.value == 10.0
    assert forecast.origin == 5


def test_predict_guards():
    fit = a.FittedCoefficients(coeffs=(0.5, 0.2, 0.1), k=3, h=1,
                               method=a.PLUG_IN, sample_end=3)
    with pytest.raises(a.InsufficientHistory):
        a.predict(np.array([1.0, 2.0]), fit)
    with pytest.raises(ValueError):
        a.predict(np.array([1.0, 2.0, 3.0]), fit, origin=9)


def test_predict_rejects_non_finite_coefficients():
    # A fit with a NaN or infinite coefficient, which would forecast NaN
    # or inf, cannot be built: it is a ValueError.
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^coefficients hold NaN or "
                           "infinite values$"):
            a.FittedCoefficients(coeffs=(value,), k=1, h=1,
                                 method=a.DIRECT, sample_end=50)


@pytest.mark.parametrize("fields, message", [
    ({"method": "other"}, "^method must be 'plug-in' or 'direct'$"),
    ({"k": 0}, "^k must be an integer of at least 1, not 0$"),
    ({"h": 0}, "^h must be an integer of at least 1, not 0$"),
    ({"method": "other", "h": -1}, "^method must be")])
def test_predictors_and_fits_check_themselves(fields, message):
    # One rule for both types, at construction and by dataclasses.replace.
    spec = a.PredictorSpec(k=1, method=a.DIRECT, h=1)
    fit = a.fit_direct(np.random.default_rng(6).normal(size=50).cumsum(), 1, 1)
    for build in (lambda: a.PredictorSpec(**{"k": 1, "method": a.DIRECT,
                                             "h": 1, **fields}),
                  lambda: dataclasses.replace(spec, **fields),
                  lambda: dataclasses.replace(fit, **fields)):
        with pytest.raises(ValueError, match=message) as caught:
            build()
        assert type(caught.value) is ValueError


def test_predict_rejects_a_non_finite_regressor():
    series = np.random.default_rng(6).normal(size=60).cumsum()
    fit = a.fit_direct(series, 2, 2)
    for value in (np.nan, np.inf, -np.inf):
        broken = series.copy()
        broken[-1] = value
        with pytest.raises(a.NonFiniteSeries):
            a.predict(broken, fit)
        # A value outside the regressor does not matter.
        assert a.predict(broken, fit, origin=59).value \
            == a.predict(series, fit, origin=59).value


def test_plug_in_forecast_equals_iterated_one_step():
    rng = np.random.default_rng(31)
    series = rng.normal(size=120).cumsum()
    one = a.fit_one_step(series, 3)
    for h in (2, 3, 6):
        multi = a.plug_in_multi(one, h)
        got = a.predict(series, multi).value
        want = iterated_forecast(series, one.coeffs, h)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_predict_does_not_overflow_on_a_representable_forecast():
    # 2 * 1.6e308 overflows, but the forecast 2 x_1 - x_2 = 1.5e308 does
    # not: the tail is scaled down before the product.
    fit = a.FittedCoefficients((2.0, -1.0), 2, 1, a.DIRECT, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert a.predict(np.array([1.7e308, 1.6e308]), fit).value == 1.5e308


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(tail=st.lists(st.integers(-2 ** 23, 2 ** 23), min_size=1,
                     max_size=6),
       coeffs=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
       m=st.integers(-1000, 1000))
@example(tail=[2 ** 23, 2 ** 23 - 1], coeffs=[4.0, -3.0, 0, 0, 0, 0],
         m=1000)
def test_predict_scales_by_powers_of_two(tail, coeffs, m):
    # x -> 2^m x is exact on these tails, so the forecast is 2^m times
    # the unscaled one, rounded once (0 or inf past the float range),
    # even where a product of a coefficient with 2^m x would overflow.
    series = np.array(tail, dtype=float)
    k = len(tail)
    fit = a.FittedCoefficients(tuple(coeffs[:k]), k, 1, a.DIRECT, k)
    want = a.predict(series, fit).value
    with np.errstate(over="ignore"):
        want = float(np.ldexp(want, m))
    assert a.predict(np.ldexp(series, m), fit).value == want

"""The argument contract of the public API: every size and position is an
integer (not a float, not a bool), every method goes through one rule,
and a call on any series or size either returns values free of NaN or
raises an ArstepError or a ValueError, with no numpy RuntimeWarning on
the way."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arstep as a

SERIES = a.generate(a.DGPS["III"], 200, a.replication_seed(0, a.DGPS["III"],
                                                           200, 0))
MODEL = a.model_for(a.DGPS["III"])


@pytest.mark.parametrize("call", [
    lambda: a.PredictorSpec(1.5, a.PLUG_IN, 2.7),
    lambda: a.PredictorSpec(True, a.DIRECT, 2),
    lambda: a.FittedCoefficients((0.5,), 1, 2.0, a.DIRECT, 50),
    lambda: a.select_by_ape(SERIES, 2.5, 4),
    lambda: a.accumulated_prediction_error(SERIES, 1.0, 2, a.DIRECT, 4),
    lambda: a.min_start_index(SERIES, 4, 2.0),
    lambda: a.select_by_criterion(SERIES, 2, 4.0),
    lambda: a.select_by_criterion(SERIES, True, 4),
    lambda: a.plugin_criterion(SERIES, 2.0, 2, 4),
    lambda: a.direct_criterion(SERIES, 1, 2, True),
    lambda: a.loss_table(MODEL, 2.0, 4),
    lambda: a.loss_table(MODEL, 2, True),
    lambda: a.loss(MODEL, 2, 2.5, a.DIRECT),
    lambda: a.plugin_cost(MODEL, 2, 3.0),
    lambda: a.closed_form_h2(MODEL, 2.5, a.PLUG_IN),
    lambda: a.autocovariances(MODEL, 3.5),
    lambda: a.direct_coefficients(MODEL, True),
    lambda: a.sigma_h_squared(MODEL, 2.0),
    lambda: a.impulse_response([0.5], 2.5),
    lambda: a.ma_weights(MODEL, True),
    lambda: a.fit_direct(SERIES, 1.5, 2),
    lambda: a.fit_one_step(SERIES, 2.0),
    lambda: a.plug_in_multi(a.fit_one_step(SERIES, 2), 3.0),
    lambda: a.residual_mse(SERIES, a.fit_direct(SERIES, 2, 2), 2, 4.0),
    lambda: a.lag_matrix(SERIES, 2.0, 2, 10),
    lambda: a.generate(a.DGPS["III"], True),
    lambda: a.generate(a.DGPS["III"], 50.0),
    lambda: a.generate(a.DGPS["III"], 50, burn_in=1.5),
    lambda: a.replication_seed(0, a.DGPS["III"], 50.0, 0),
    lambda: a.DgpSpec("Z", (0.5,), False, 2.0, 5),
    lambda: a.PenaltyWeight(2.0).value(100.0),
], ids=["spec", "spec_bool", "fit", "select_by_ape", "ape", "start_index",
        "criterion", "criterion_bool", "plugin_criterion", "direct_criterion",
        "loss_table", "loss_table_bool", "loss", "plugin_cost",
        "closed_form_h2", "autocovariances", "direct_coefficients",
        "sigma_h_squared", "impulse_response", "ma_weights", "fit_direct",
        "fit_one_step", "plug_in_multi", "residual_mse", "lag_matrix",
        "generate_bool", "generate", "burn_in", "replication_seed",
        "dgp_horizon", "penalty_n"])
def test_sizes_must_be_integers(call):
    # A float or a bool size used to run truncated, as 1, or fail inside
    # numpy with an IndexError or TypeError.
    with pytest.raises(ValueError, match="must be an integer of at least"):
        call()


@pytest.mark.parametrize("call", [
    lambda: a.predict(SERIES, a.fit_direct(SERIES, 2, 2), 150.7),
    lambda: a.predict(SERIES, a.fit_direct(SERIES, 2, 2), True),
    lambda: a.fit_direct(SERIES, 2, 1, 30.5),
    lambda: a.fit_direct(SERIES, 2, 1, 30.0),
    lambda: a.fit_one_step(SERIES, 2, 30.0),
    lambda: a.lag_matrix(SERIES, 2, 2.0, 10),
    lambda: a.lag_matrix(SERIES, 2, 2, 10.5),
    lambda: a.lag_matrix(SERIES, 2, True, 10),
], ids=["origin", "origin_bool", "sample_end", "sample_end_whole",
        "fit_one_step", "first", "last", "first_bool"])
def test_positions_must_be_integers(call):
    # A float origin used to forecast from int(origin), a bool one from
    # origin 1, and a float sample end or row bound failed inside numpy
    # with a TypeError.
    with pytest.raises(ValueError, match="must be an integer, not"):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: a.predict(SERIES, a.fit_direct(SERIES, 2, 2), 1),
     a.InsufficientHistory),
    (lambda: a.fit_direct(SERIES, 2, 2, 3), a.SingularDesign),
    (lambda: a.lag_matrix(SERIES, 2, 1, 10), ValueError),
    (lambda: a.lag_matrix(SERIES, 2, 2, 201), ValueError),
], ids=["origin", "sample_end", "first", "last"])
def test_positions_below_their_range_keep_their_types(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("call", [
    lambda: a.loss(MODEL, 2, 2, "other"),
    lambda: a.loss(MODEL, 2, 0, "other"),
    lambda: a.closed_form_h2(MODEL, 1, "other"),
    lambda: a.accumulated_prediction_error(SERIES, 9, 2, "other", 4),
    lambda: a.PredictorSpec(0, "other", 0),
], ids=["loss", "loss_order", "closed_form_h2", "ape", "spec"])
def test_one_method_rule_comes_first(call):
    with pytest.raises(ValueError,
                       match="^method must be 'plug-in' or 'direct'$"):
        call()


def test_spec_with_numpy_integer_fields_runs_as_given():
    # PredictorSpec(1.5, "plug-in", 2.7) used to build and run as k = 1,
    # h = 2 (it is refused now); numpy integers are integers, and
    # estimate_mspe runs them as given, with no cast of its own.
    spec = a.PredictorSpec(np.int64(1), a.PLUG_IN, np.int64(2))
    assert a.estimate_mspe(a.DGPS["III"], spec, 50, 3) \
        == a.estimate_mspe(a.DGPS["III"], a.PredictorSpec(1, a.PLUG_IN, 2),
                           50, 3)


def test_ape_square_overflow_is_typed_without_a_warning():
    # Squaring the prediction errors overflowed with a bare warning
    # before NonFiniteCriterion.
    x = np.array([2.0 ** 615, -2.0 ** -913, 2.0 ** 535, -2.0 ** 365,
                  -2.0 ** 994, -2.0 ** 508, -2.0 ** 38, 2.0 ** 74,
                  -2.0 ** -703])
    with pytest.raises(a.NonFiniteCriterion):
        a.select_by_ape(x, 4, 1)


def test_plug_in_powering_overflow_is_typed_without_a_warning():
    # The companion powering overflowed with a bare warning before
    # FittedCoefficients refused the infinite coefficients.
    y = np.array([-2.0 ** -737, 2.0 ** 343, -2.0 ** 270, -2.0 ** 440,
                  -2.0 ** 962])
    with pytest.raises(ValueError,
                       match="^coefficients hold NaN or infinite values$"):
        a.plug_in_multi(a.fit_one_step(y, 1), 4)


# Entries of every magnitude: a signed power of two anywhere in the
# float range, a normal draw, or zero.  Mixed in one series, they are
# what found the two overflow warnings above.
MAGNITUDES = st.one_of(
    st.builds(lambda sign, m: sign * math.ldexp(1.0, m),
              st.sampled_from((-1.0, 1.0)), st.integers(-1074, 1023)),
    st.floats(-10.0, 10.0), st.just(0.0))
SERIES_VALUES = st.one_of(
    st.lists(MAGNITUDES, min_size=1, max_size=40),
    st.builds(lambda seed, n, scale: (np.random.default_rng(seed)
                                      .normal(size=n).cumsum() * scale)
              .tolist(),
              st.integers(0, 2 ** 32 - 1), st.integers(1, 60),
              st.sampled_from((1.0, 1e-300, 1e300))),
    st.builds(lambda period, n: np.resize(np.arange(1.0, period + 1.0), n)
              .tolist(), st.integers(1, 4), st.integers(1, 40)))
# Sizes k, h, K: valid, or one of them replaced by a bad value.
SIZES = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
BAD_SIZE = st.one_of(st.none(), st.tuples(
    st.integers(0, 2), st.sampled_from((0, -1, True, False, 2.0, 2.5,
                                        math.nan))))


def _has_nan(value):
    if isinstance(value, (float, np.floating)):
        return math.isnan(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and bool(np.isnan(value).any())
    if isinstance(value, dict):
        return any(map(_has_nan, value.values()))
    if isinstance(value, (tuple, list)):
        return any(map(_has_nan, value))
    if dataclasses.is_dataclass(value):
        return any(_has_nan(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return False


def _calls(x, k, h, K):
    """Every public call on a series x or the sizes k, h, K."""
    dgp = a.DGPS["VII"]
    yield lambda: a.select_by_criterion(x, h, K)
    yield lambda: a.select_by_ape(x, h, K)
    yield lambda: a.accumulated_prediction_error(x, k, h, a.PLUG_IN, K)
    yield lambda: a.min_start_index(x, K, h)
    yield lambda: a.plugin_criterion(x, k, h, K)
    yield lambda: a.direct_criterion(x, k, h, K)
    yield lambda: a.lag_matrix(x, k, 5, len(x))
    yield lambda: a.difference(x)
    yield lambda: a.residual_mse(x, a.fit_direct(x, k, h), h, K)
    yield lambda: a.predict(x, a.fit_direct(x, k, h))
    one_step = lambda: a.fit_one_step(x, k)  # noqa: E731
    yield lambda: a.predict(x, a.plug_in_multi(one_step(), h))
    yield lambda: a.fitted_ma_weights(one_step(), K)
    yield lambda: a.generate(dgp, K, seed=0, burn_in=h)
    yield lambda: a.loss_table(MODEL, h, K)
    yield lambda: a.best_combinations(MODEL, h, K)
    yield lambda: a.loss(MODEL, h, k, a.DIRECT)
    yield lambda: a.plugin_cost(MODEL, h, k)
    yield lambda: a.direct_cost(MODEL, h, k)
    yield lambda: a.closed_form_h2(MODEL, k, a.PLUG_IN)
    yield lambda: a.autocovariances(MODEL, K).matrix(k)
    yield lambda: a.direct_coefficients(MODEL, h)
    yield lambda: a.impulse_response([0.5, 0.2], K)
    yield lambda: a.ma_weights(MODEL, K)
    yield lambda: a.sigma_h_squared(MODEL, h)


def _check_contract(x, k, h, K):
    for call in _calls(x, k, h, K):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = call()
            except (a.ArstepError, ValueError) as exc:
                # numpy's LinAlgError is a ValueError, but must not leak.
                assert not isinstance(exc, np.linalg.LinAlgError)
                continue
        assert not _has_nan(result)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(values=SERIES_VALUES, sizes=SIZES, bad=BAD_SIZE)
def test_public_calls_keep_the_contract(values, sizes, bad):
    sizes = list(sizes)
    if bad is not None:
        sizes[bad[0]] = bad[1]
    _check_contract(np.array(values), *sizes)


# Inputs on which the contract failed, found by its strategies.  Each
# series spans hundreds of decades, so some fit, powering, penalty or
# sum leaves the float range.
@pytest.mark.parametrize("values, sizes", [
    # A 1 x 1 Gram of 2e-309, whose pivot has no finite reciprocal: the
    # APE fit solved to NaN.
    ([3.095753843925039e-113, 0.0, -2.0 ** 138], (1, 1, 1)),
    # The APE plug-in powering overflowed with a warning.
    ([-4.550200482342536, 0.0, 0.0, 1.5274681817498023e-151,
      -9.157269394631005, -9.157269394631005, 6.293155036426992,
      -6.518515124270356e+91, 0.0, 0.0, 2.008672555323738e+59,
      1.4411518807585587e+17, 4.631683569492648e+77, 0.0], (1, 4, 1)),
    # The plug-in trace penalty overflowed with a warning.
    ([-3.961408125713217e+28, 5.1946224451178615, -8.112963841460668e+31,
      -3.5740377633625133, 0.0, 4.951760157141521e+27,
      -6.153399154227794e-244, 7.647523345940339, 2.816411161670212,
      -8.112963841460668e+31, -3.8645375230172583e+171], (2, 2, 1)),
    # Direct fits and the plug-in penalty met inf * 0, with warnings;
    # the criteria came out NaN.
    ([-6.307597843006336, 0.0, 0.0, 0.0, 0.0, -7.984542932160524e-44, 0.0,
      0.0, -2.1452492687908155e+155, -2.0], (1, 3, 1)),
    # The first difference overflowed with a warning.
    ([-2.0 ** 1023, 2.5, 2.5, -2.0 ** 1023, -2.0 ** 1023, 2.0 ** 1023],
     (5, 4, 3)),
    # The fitted MA weights met inf - inf and came out NaN.
    ([4.0, -9.138769442945986, -2.3867927650122915, 0.0, 0.0, 0.0,
      -9.138769442945986, 8.958978968711217e+102], (2, 1, 5)),
], ids=["ape_subnormal_pivot", "ape_powering", "plug_in_penalty",
        "inf_times_zero", "difference", "fitted_ma_weights"])
def test_contract_holds_where_it_failed(values, sizes):
    _check_contract(np.array(values), *sizes)

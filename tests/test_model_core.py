"""Exact model algebra: deflation, companions, direct coefficients, weights."""

import math

import numpy as np
import pytest

import arstep as a
from arstep import model_core
from arstep.model_core import ar_coefficients
from oracles import hand_impulse, levels_from_stationary, substitution_coefficients
from sampling import random_stable_coeffs, sample_unit_root_models

CUBIC = (0.9, -0.81, 0.91)
X2 = (1.5, -0.5)


def test_deflate_fixture_models():
    np.testing.assert_allclose(a.deflate_unit_root(CUBIC), (-0.1, -0.91),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.deflate_unit_root(X2), (0.5,),
                               rtol=0, atol=1e-12)
    assert a.deflate_unit_root((1.0,)).size == 0


def test_deflate_inverts_polynomial_multiplication():
    for model in sample_unit_root_models(60, seed=20260817):
        rebuilt = levels_from_stationary(model.stationary)
        np.testing.assert_allclose(rebuilt, model.levels, rtol=0, atol=1e-12)


def test_unit_root_model_round_trips_the_stationary_factor():
    # alpha -> levels of (1 - z)(1 - alpha(z)) -> unit_root_model gives
    # alpha back, through deflate_unit_root, and rebuilding the model from
    # its own levels gives the same model.
    rng = np.random.default_rng(20261019)
    for _ in range(60):
        alpha = random_stable_coeffs(rng)
        model = a.unit_root_model(levels_from_stationary(alpha), 2.0)
        np.testing.assert_allclose(model.stationary, alpha, rtol=0,
                                   atol=1e-12)
        assert model.stationary == tuple(a.deflate_unit_root(model.levels))
        assert a.unit_root_model(model.levels, model.sigma2) == model


def test_deflate_rejects_non_unit_root():
    with pytest.raises(a.NotUnitRoot):
        a.deflate_unit_root((0.5,))


def test_deflate_rejects_unstable_quotient():
    # (1 - z)(1 - 1.2 z): sums to one but the second factor is explosive.
    with pytest.raises(a.UnstableStationaryPart):
        a.deflate_unit_root(levels_from_stationary((1.2,)))


def test_deflate_rejects_seasonal_roots():
    # 1 - z^4 = (1 - z)(1 + z + z^2 + z^3) has roots on the unit circle.
    with pytest.raises(a.UnstableStationaryPart):
        a.unit_root_model((0.0, 0.0, 0.0, 1.0))


def test_model_constructors_validate():
    with pytest.raises(ValueError):
        a.unit_root_model((1.0, 0.0))
    with pytest.raises(ValueError):
        a.unit_root_model((1.0,), sigma2=0.0)
    with pytest.raises(a.UnstableStationaryPart):
        a.stationary_model((1.0,))
    # White noise has no lag: both constructors reject it alike.
    for constructor in (a.unit_root_model, a.stationary_model):
        with pytest.raises(ValueError, match="^levels must be nonempty$"):
            constructor(())
    model = a.unit_root_model(CUBIC, sigma2=25.0)
    assert model.p == 2 and model.sigma2 == 25.0


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf, 0.0,
                                    -1.0])
def test_model_constructors_reject_bad_innovation_variances(sigma2):
    for constructor, levels in ((a.unit_root_model, CUBIC),
                                (a.stationary_model, (0.5,))):
        with pytest.raises(ValueError, match="^sigma2 must be finite and "
                                             "positive"):
            constructor(levels, sigma2)


def test_companion_matrix_fixture():
    np.testing.assert_array_equal(a.companion_matrix(X2),
                                  [[1.5, 1.0], [-0.5, 0.0]])


def test_companion_apply_matches_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        coeffs = rng.normal(size=k)
        vec = rng.normal(size=k)
        want = a.companion_matrix(coeffs) @ vec
        np.testing.assert_allclose(a.companion_apply(coeffs, vec), want,
                                   rtol=1e-13, atol=1e-13)


def test_direct_coefficients_fixture():
    model = a.unit_root_model(CUBIC)
    dc = a.direct_coefficients(model, 3)
    np.testing.assert_allclose(dc.coeffs, (0.181, 0.819, 0.0),
                               rtol=0, atol=1e-12)
    assert dc.p_h == 2
    assert a.direct_coefficients(model, 1).coeffs == CUBIC
    assert a.direct_coefficients(model, 1).p_h == 3


def test_direct_coefficients_x_two_step():
    dc = a.direct_coefficients(a.unit_root_model(X2), 2)
    np.testing.assert_allclose(dc.coeffs, (1.75, -0.75), rtol=0, atol=1e-14)
    assert dc.p_h == 2


def test_direct_coefficients_match_substitution_oracle():
    for model in sample_unit_root_models(40, seed=11):
        for h in (1, 2, 3, 5):
            got = a.direct_coefficients(model, h).coeffs
            want = substitution_coefficients(model.levels, h)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_impulse_response_matches_hand_recursion():
    for model in sample_unit_root_models(10, seed=3):
        got = a.impulse_response(np.asarray(model.levels), 12)
        np.testing.assert_allclose(got, hand_impulse(model.levels, 13),
                                   rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(a.impulse_response(np.zeros(0), 4),
                                  [1, 0, 0, 0, 0])


def test_ma_weights_fixtures():
    rw = a.unit_root_model((1.0,))
    w = a.ma_weights(rw, 6)
    np.testing.assert_array_equal(w.c, [1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(w.b, np.ones(7))

    cubic = a.unit_root_model(CUBIC)
    w = a.ma_weights(cubic, 8)
    np.testing.assert_allclose(w.b[:3], (1.0, 0.9, 0.0), rtol=0, atol=1e-12)


def test_ma_weights_running_sum_equals_levels_impulse():
    for model in sample_unit_root_models(20, seed=7):
        w = a.ma_weights(model, 15)
        np.testing.assert_allclose(w.c.cumsum(), w.b, rtol=1e-13)
        np.testing.assert_allclose(w.b, a.level_ma_weights(model, 15),
                                   rtol=1e-11, atol=1e-12)


def test_ma_weights_auto_truncation_tail_is_negligible():
    model = a.unit_root_model(CUBIC)
    w = a.ma_weights(model)
    assert w.J >= model.p
    assert abs(w.c[-1]) < 1e-13


def test_sigma_h_squared_examples():
    rw = a.unit_root_model((1.0,), sigma2=2.0)
    for h in (1, 2, 4):
        assert a.sigma_h_squared(rw, h) == pytest.approx(2.0 * h, rel=1e-14)
    cubic = a.unit_root_model(CUBIC, sigma2=25.0)
    assert a.sigma_h_squared(cubic, 3) == pytest.approx(25.0 * 1.81, rel=1e-12)
    with pytest.raises(ValueError):
        a.sigma_h_squared(rw, 0)


def test_ar_coefficients_dispatch_on_the_model_type():
    levels, stationary = ar_coefficients(a.unit_root_model(CUBIC))
    assert levels.tolist() == list(CUBIC)
    np.testing.assert_allclose(stationary, (-0.1, -0.91), rtol=0, atol=1e-12)
    levels, stationary = ar_coefficients(a.stationary_model((0.5, -0.2)))
    assert levels.tolist() == stationary.tolist() == [0.5, -0.2]


@pytest.mark.parametrize("call", [
    lambda m: a.direct_coefficients(m, 2),
    lambda m: a.level_ma_weights(m, 3),
    lambda m: a.sigma_h_squared(m, 2),
    lambda m: a.autocovariances(m, 3),
    lambda m: a.loss_table(m, 2, 3),
], ids=["direct_coefficients", "level_ma_weights", "sigma_h_squared",
        "autocovariances", "loss_table"])
def test_model_functions_reject_other_types(call):
    with pytest.raises(TypeError):
        call(CUBIC)  # a levels tuple is not a model


def test_difference_roundtrip_and_presample_zero():
    rng = np.random.default_rng(9)
    x = rng.normal(size=50).cumsum()
    dx = a.difference(x)
    assert dx[0] == x[0]
    np.testing.assert_allclose(np.cumsum(dx), x, rtol=1e-12, atol=1e-14)


def test_circle_powers_are_cached_read_only_and_equal_the_formula():
    theta = np.linspace(0.0, 2.0 * np.pi, model_core._CIRCLE_POINTS,
                        endpoint=False)
    z = np.exp(1j * theta)
    rng = np.random.default_rng(8)
    for p in range(13):
        want = z[:, None] ** np.arange(1, p + 1)[None, :]
        got = model_core._circle_powers(p)
        assert got is model_core._circle_powers(p)
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)
        coeffs = rng.uniform(-0.5, 0.5, p)
        assert model_core._poly_on_circle(coeffs) \
            == float(np.min(np.abs(1.0 - want @ coeffs)))

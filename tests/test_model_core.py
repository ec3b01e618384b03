"""Exact model algebra: deflation, companions, direct coefficients, weights."""

import dataclasses
import math
import pickle

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
    # alpha -> levels of (1 - z)(1 - alpha(z)) -> UnitRootArModel gives
    # alpha back, through deflate_unit_root, and rebuilding the model from
    # its own levels gives the same model.
    rng = np.random.default_rng(20261019)
    for _ in range(60):
        alpha = random_stable_coeffs(rng)
        model = a.UnitRootArModel(levels_from_stationary(alpha), 2.0)
        np.testing.assert_allclose(model.stationary, alpha, rtol=0,
                                   atol=1e-12)
        assert model.stationary == tuple(a.deflate_unit_root(model.levels))
        assert a.UnitRootArModel(model.levels, model.sigma2) == model


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
        a.UnitRootArModel((0.0, 0.0, 0.0, 1.0))


def test_model_constructors_validate():
    with pytest.raises(ValueError):
        a.UnitRootArModel((1.0, 0.0))
    with pytest.raises(ValueError):
        a.UnitRootArModel((1.0,), sigma2=0.0)
    with pytest.raises(a.UnstableStationaryPart):
        a.StationaryArModel((1.0,))
    # White noise has no lag: both constructors reject it alike.
    for constructor in (a.UnitRootArModel, a.StationaryArModel):
        with pytest.raises(ValueError, match="^levels must be nonempty$"):
            constructor(())
    model = a.UnitRootArModel(CUBIC, sigma2=25.0)
    assert model.p == 2 and model.sigma2 == 25.0


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf, 0.0,
                                    -1.0])
def test_model_constructors_reject_bad_innovation_variances(sigma2):
    for constructor, levels in ((a.UnitRootArModel, CUBIC),
                                (a.StationaryArModel, (0.5,))):
        with pytest.raises(ValueError, match="^sigma2 must be finite and "
                                             "positive"):
            constructor(levels, sigma2)


def test_models_check_their_own_fields():
    # The classes validate: stationary and p are derived, and
    # dataclasses.replace builds anew.
    unit = a.UnitRootArModel(CUBIC, 25.0)
    stable = a.StationaryArModel((0.5, -0.2))
    assert unit.stationary == tuple(a.deflate_unit_root(CUBIC)) and unit.p == 2
    assert dataclasses.replace(unit, sigma2=4.0) == a.UnitRootArModel(CUBIC, 4.0)
    with pytest.raises(TypeError):
        a.UnitRootArModel(levels=(0.5,), stationary=(0.9, 0.9), sigma2=-1.0,
                          p=7)
    with pytest.raises(a.UnstableStationaryPart):
        a.StationaryArModel((1.5,))
    with pytest.raises(a.NotUnitRoot):
        dataclasses.replace(unit, levels=(0.5,))
    for model in (unit, stable):
        with pytest.raises(ValueError, match="^sigma2 must be finite"):
            dataclasses.replace(model, sigma2=-1.0)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(model, p=7)


def test_models_survive_a_pickle_round_trip():
    # run_frequency_experiment's pool sends models to its workers.
    for model in (a.UnitRootArModel(CUBIC, 25.0), a.StationaryArModel((0.5,)),
                  a.model_for(a.DGPS["IX"])):
        assert pickle.loads(pickle.dumps(model)) == model


def test_one_stability_check_per_construction(monkeypatch):
    # Each class, and the builders that call one, checks stability once.
    labels = []
    check = model_core._check_stable

    def counted(coeffs, label):
        labels.append(label)
        return check(coeffs, label)

    monkeypatch.setattr(model_core, "_check_stable", counted)
    for build in (lambda: a.UnitRootArModel(CUBIC),
                  lambda: a.UnitRootArModel((1.0,)),
                  lambda: a.StationaryArModel((0.5, -0.2)),
                  lambda: a.model_for(a.DGPS["IX"]),
                  lambda: a.model_for(a.DGPS["V"]),
                  lambda: a.quartic_family(0.5)):
        labels.clear()
        build()
        assert len(labels) == 1


@pytest.mark.parametrize("level", [math.inf, -math.inf, math.nan])
def test_non_finite_levels_are_a_value_error(level):
    # With an infinite level the A(1) tolerance is infinite too, so the
    # unit-root test alone would accept it.
    for levels in ((level,), (0.5, level, 0.5)):
        for call in (a.deflate_unit_root, a.UnitRootArModel):
            with pytest.raises(ValueError, match="NaN or infinite"):
                call(levels)


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
    model = a.UnitRootArModel(CUBIC)
    dc = a.direct_coefficients(model, 3)
    np.testing.assert_allclose(dc.coeffs, (0.181, 0.819, 0.0),
                               rtol=0, atol=1e-12)
    assert dc.p_h == 2
    assert a.direct_coefficients(model, 1).coeffs == CUBIC
    assert a.direct_coefficients(model, 1).p_h == 3


def test_direct_coefficients_x_two_step():
    dc = a.direct_coefficients(a.UnitRootArModel(X2), 2)
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
    rw = a.UnitRootArModel((1.0,))
    w = a.ma_weights(rw, 6)
    np.testing.assert_array_equal(w.c, [1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(w.b, np.ones(7))
    w = a.ma_weights(rw, 0)
    assert (w.J, w.c.tolist(), w.b.tolist()) == (0, [1.0], [1.0])

    cubic = a.UnitRootArModel(CUBIC)
    w = a.ma_weights(cubic, 8)
    np.testing.assert_allclose(w.b[:3], (1.0, 0.9, 0.0), rtol=0, atol=1e-12)


def test_ma_weights_running_sum_equals_levels_impulse():
    for model in sample_unit_root_models(20, seed=7):
        w = a.ma_weights(model, 15)
        np.testing.assert_allclose(w.c.cumsum(), w.b, rtol=1e-13)
        np.testing.assert_allclose(w.b, a.level_ma_weights(model, 15),
                                   rtol=1e-11, atol=1e-12)


def test_ma_weights_needs_a_length():
    with pytest.raises(TypeError):
        a.ma_weights(a.UnitRootArModel(CUBIC))


def test_sigma_h_squared_examples():
    rw = a.UnitRootArModel((1.0,), sigma2=2.0)
    for h in (1, 2, 4):
        assert a.sigma_h_squared(rw, h) == pytest.approx(2.0 * h, rel=1e-14)
    cubic = a.UnitRootArModel(CUBIC, sigma2=25.0)
    assert a.sigma_h_squared(cubic, 3) == pytest.approx(25.0 * 1.81, rel=1e-12)
    with pytest.raises(ValueError):
        a.sigma_h_squared(rw, 0)


def test_ar_coefficients_dispatch_on_the_model_type():
    levels, stationary = ar_coefficients(a.UnitRootArModel(CUBIC))
    assert levels.tolist() == list(CUBIC)
    np.testing.assert_allclose(stationary, (-0.1, -0.91), rtol=0, atol=1e-12)
    levels, stationary = ar_coefficients(a.StationaryArModel((0.5, -0.2)))
    assert levels.tolist() == stationary.tolist() == [0.5, -0.2]


STATIONARY = a.StationaryArModel((0.5,))


# A levels tuple is not a model, and the unit-root functions take no
# stationary model.
@pytest.mark.parametrize("call", [
    lambda: a.direct_coefficients(CUBIC, 2),
    lambda: a.level_ma_weights(CUBIC, 3),
    lambda: a.sigma_h_squared(CUBIC, 2),
    lambda: a.autocovariances(CUBIC, 3),
    lambda: a.loss_table(CUBIC, 2, 3),
    lambda: a.ma_weights(STATIONARY, 3),
    lambda: a.plugin_cost(CUBIC, 2, 2),
    lambda: a.direct_cost(CUBIC, 2, 2),
    lambda: a.closed_form_h2(STATIONARY, 2, a.PLUG_IN),
    lambda: a.loss(CUBIC, 2, 2, a.PLUG_IN),
], ids=["direct_coefficients", "level_ma_weights", "sigma_h_squared",
        "autocovariances", "loss_table", "ma_weights", "plugin_cost",
        "direct_cost", "closed_form_h2", "loss"])
def test_model_functions_reject_other_types(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: a.deflate_unit_root(np.ones((2, 2))), "nonempty 1-D"),
    (lambda: a.companion_matrix(()), "nonempty"),
    (lambda: a.direct_coefficients(STATIONARY, 0), "horizon"),
    (lambda: a.autocovariances(STATIONARY, -1), "nonnegative"),
    (lambda: a.autocovariances(STATIONARY, 3).matrix(5), "lags up to 3"),
    (lambda: a.plugin_cost(a.UnitRootArModel(CUBIC), 2, 0), "order"),
    (lambda: a.direct_cost(a.UnitRootArModel(CUBIC), 2, 0), "order"),
    (lambda: a.closed_form_h2(a.UnitRootArModel(CUBIC), 1, a.PLUG_IN),
     "k >= 2"),
    (lambda: a.closed_form_h2(a.UnitRootArModel(CUBIC), 2, "other"),
     "method"),
    (lambda: a.loss(a.UnitRootArModel(CUBIC), 2, 0, a.PLUG_IN), "order"),
    (lambda: a.loss(a.UnitRootArModel(CUBIC), 2, 2, "other"), "method"),
], ids=["deflate_unit_root", "companion_matrix", "direct_coefficients",
        "autocovariances", "autocovariance_matrix", "plugin_cost",
        "direct_cost", "closed_form_h2_order", "closed_form_h2_method",
        "loss_order", "loss_method"])
def test_model_functions_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

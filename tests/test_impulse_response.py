"""Impulse responses against scipy's lfilter, and loss table entries
against the stand-alone losses and costs they share one cost kernel
with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import arstep as a
from arstep.model_core import ar_coefficients
from sampling import (NEAR_UNIT_ROOTS, sample_stationary_models,
                      sample_unit_root_models, unit_root_model_with_roots)

# Bounded and derandomized, so the suite's runtime and outcome are fixed.
BOUNDED = settings(max_examples=50, deadline=None, derandomize=True,
                   database=None)

# Signed zeros and tiny values exercise the sign of zero sums; |a_i| <= 2
# with p <= 20 keeps 84 steps finite.
COEFF = st.one_of(st.floats(-2.0, 2.0),
                  st.sampled_from((0.0, -0.0, 5e-324, -1e-300, 1.0, -1.0)))


def _lfilter_response(coeffs, length):
    pulse = np.zeros(length + 1)
    pulse[0] = 1.0
    return lfilter([1.0], np.concatenate(([1.0], -np.asarray(coeffs))),
                   pulse)


@BOUNDED
@given(coeffs=st.lists(COEFF, min_size=1, max_size=20))
def test_short_responses_are_lfilters_bit_for_bit(coeffs):
    p = len(coeffs)
    for length in range(64 + p):
        want = _lfilter_response(coeffs, length)
        # One row, and the first row of a stack (run row by row).
        stacked = a.impulse_response([coeffs, coeffs[::-1]], length)[0]
        for got in (a.impulse_response(coeffs, length), stacked):
            assert got.tolist() == want.tolist()
            assert np.signbit(got).tolist() == np.signbit(want).tolist()


@pytest.mark.parametrize("dgp_id", sorted(a.DGPS))
def test_long_expansions_agree_with_lfilter(dgp_id):
    # Both polynomials: the levels responses of unit-root models do not
    # decay.  The length lies past the point where the slowest stationary
    # response (IX's) falls below 1e-14.
    levels, stationary = ar_coefficients(a.model_for(a.DGPS[dgp_id]))
    length = 14_000
    for coeffs in (stationary, levels):
        got = a.impulse_response(coeffs, length)
        want = _lfilter_response(coeffs, length)
        assert got.tolist() == want.tolist()
        assert np.signbit(got).tolist() == np.signbit(want).tolist()


@BOUNDED
@given(rows=st.integers(1, 6), p=st.integers(1, 12),
       length=st.integers(0, 700), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_call_equals_row_by_row(rows, p, length, seed):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-0.9, 0.9, (rows, p)) / p
    got = a.impulse_response(stack, length)
    want = np.array([a.impulse_response(row, length) for row in stack])
    assert got.tolist() == want.tolist()
    # A response is a prefix of every longer one.
    longer = a.impulse_response(stack, length + 150)
    assert longer[:, :length + 1].tolist() == got.tolist()
    assert a.impulse_response(stack.reshape(rows, 1, p), length).tolist() \
        == got[:, None].tolist()


def test_empty_coefficients_give_the_pulse():
    assert a.impulse_response(np.zeros(0), 4).tolist() == [1, 0, 0, 0, 0]
    pulses = a.impulse_response(np.zeros((2, 0)), 200)
    assert pulses.shape == (2, 201)
    assert pulses.sum(axis=1).tolist() == [1.0, 1.0]


def test_negative_lengths_are_value_errors():
    one_step = a.fit_one_step(np.random.default_rng(2).normal(size=40), 2)
    model = a.model_for(a.DGPS["III"])
    for call in (lambda: a.impulse_response([0.5, 0.1], -1),
                 lambda: a.impulse_response(np.zeros(0), -2),
                 lambda: a.ma_weights(model, -1),
                 lambda: a.level_ma_weights(model, -1),
                 lambda: a.fitted_ma_weights(one_step, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()


def _models():
    yield from (a.model_for(a.DGPS[key]) for key in ("III", "VII", "IX", "V"))
    yield from sample_unit_root_models(4, seed=21)
    yield from sample_stationary_models(4, seed=22)
    yield from (unit_root_model_with_roots(roots) for roots in NEAR_UNIT_ROOTS)


@pytest.mark.blas_layout
def test_loss_table_entries_equal_stand_alone_losses():
    for model in _models():
        for h in (1, 3):
            K = model.p + 4
            for (k, method), entry in a.loss_table(model, h, K).items():
                assert entry == a.loss(model, h, k, method)


@pytest.mark.blas_layout
def test_cost_gap_equals_its_stand_alone_costs():
    for a1 in (0.2, 0.5, 0.9):
        model = a.quartic_family(a1)
        want = a.direct_cost(model, 3, 3) - a.plugin_cost(model, 3, 4)
        assert a.minimal_order_cost_gap(a1) == want
        assert math.isfinite(want)

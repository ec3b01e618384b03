"""Property tests: the prefix gate, lag matrices and plug-in powering
against naive constructions, on inputs drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arstep as a
from arstep.estimation import (_plug_in_powers, _singular_grams,
                               _singular_prefix)
from arstep.selection import _gram_prefix

# Bounded and derandomized, so the suite's runtime and outcome are fixed.
BOUNDED = settings(max_examples=50, deadline=None, derandomize=True,
                   database=None)

SHAPES = ("noise", "walk", "constant", "zero run", "zero start",
          "repeated rows", "integers")


def _shaped_series(shape, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n)
    if shape == "walk":
        return np.cumsum(noise)
    if shape == "constant":
        return np.full(n, noise[0])
    if shape in ("zero run", "zero start"):
        walk = np.cumsum(noise)
        start = 0 if shape == "zero start" else int(rng.integers(0, n))
        walk[start:start + int(rng.integers(1, n + 1))] = 0.0
        return walk
    if shape == "repeated rows":
        period = int(rng.integers(1, 5))
        return np.resize(noise[:period], n)
    if shape == "integers":
        return np.round(3.0 * noise)
    return noise


@BOUNDED
@given(shape=st.sampled_from(SHAPES), n=st.integers(2, 150),
       k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from((1.0, 1e150, 1e-150)),
       base=st.integers(0, 20))
def test_prefix_gate_equals_batched_gate(shape, n, k, seed, scale, base):
    series = scale * _shaped_series(shape, n, seed)
    grams = _gram_prefix(series, min(k, n - 1))[1][base:]
    assert _singular_prefix(grams).tolist() == \
        _singular_grams(grams).tolist()


@BOUNDED
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       data=st.data())
def test_lag_matrix_matches_naive_loop(values, data):
    n = len(values)
    k = data.draw(st.integers(1, min(n, 8)))
    first = data.draw(st.integers(k, n))
    last = data.draw(st.integers(first - 1, n))
    rows = a.lag_matrix(values, k, first, last)
    naive = [[values[j - 1 - l] for l in range(k)]
             for j in range(first, last + 1)]
    assert rows.shape == (max(last - first + 1, 0), k)
    assert rows.tolist() == naive


def _iterated_forecast(coeffs, tail, h):
    """h-step forecast by iterating the one-step recursion; tail is
    (x_t, x_{t-1}, ..., x_{t-k+1})."""
    window = list(tail)
    for _ in range(h):
        window.insert(0, sum(c * x for c, x in zip(coeffs, window)))
    return window[0]


@BOUNDED
@given(k=st.integers(1, 5), h=st.integers(1, 8), rows=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plug_in_powers_match_iterated_one_step_forecasts(k, h, rows, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (rows, k))
    tails = rng.normal(size=(rows, k))
    powered = _plug_in_powers(coeffs, h)
    for a_row, tail, p_row in zip(coeffs, tails, powered):
        # Every intermediate forecast is at most this size, so rounding
        # stays a small multiple of eps times it.
        size = max(1.0, np.abs(a_row).sum()) ** h * np.abs(tail).max()
        assert float(p_row @ tail) == pytest.approx(
            _iterated_forecast(a_row, tail, h), rel=0, abs=1e-13 * size)

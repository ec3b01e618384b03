"""Least-squares machinery for one-step, multistep, and direct fits.

Conventions shared by every routine here: a series array holds x_1..x_n
(0-based storage of the 1-based convention), the order-k regressor for
1-based time j is x_j(k) = (x_j, x_{j-1}, ..., x_{j-k+1})', and the first
usable regressor row is j = k — estimation windows never reach into the
zero pre-sample.

Gram matrices are solved through a symmetric eigendecomposition with a
reciprocal-condition threshold; anything below it raises SingularDesign
rather than silently pseudo-inverting (unit-root regressors make these
matrices wildly scaled, and a corrupted solve would poison every
sequential-prediction sum built on top of it).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SingularDesign, WindowTooShort
from .model_core import DIRECT, PLUG_IN, companion_apply, impulse_response

#: Reciprocal-condition threshold below which a Gram matrix is singular.
RCOND_MIN = 1e-13


def lag_matrix(series, k, first, last):
    """Stack of regressor rows x_j(k) for j = first..last (1-based).

    Returns an (last - first + 1) x k array whose row for time j is
    (x_j, x_{j-1}, ..., x_{j-k+1}).  Requires first >= k so no pre-sample
    values are needed.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if k < 1:
        raise ValueError("order must be at least 1")
    if first < k:
        raise ValueError("first row %d would reach before the sample "
                         "(order %d)" % (first, k))
    if last > n:
        raise ValueError("last row %d exceeds the series length %d"
                         % (last, n))
    if last < first:
        return np.empty((0, k))
    return sliding_window_view(series, k)[first - k:last - k + 1, ::-1]


def _rcond_split(gram):
    """(smallest, largest) eigenvalue of a symmetric matrix."""
    evals = np.linalg.eigvalsh(gram)
    return float(evals[0]), float(evals[-1])


def gram_is_invertible(gram):
    """True when the Gram matrix clears the reciprocal-condition gate."""
    low, high = _rcond_split(gram)
    return high > 0.0 and low > high * RCOND_MIN


def _singular_grams(grams):
    """Mask of the Gram matrices in a stack that fail the condition gate.

    Written so that a NaN eigenvalue fails; for finite Grams it is the
    test of gram_is_invertible, negated.
    """
    evals = np.linalg.eigvalsh(grams)
    low, high = evals[:, 0], evals[:, -1]
    return ~(low > high * RCOND_MIN) | ~(high > 0.0)


def _gated_solve(grams, crosses, where, bad=None):
    """Solve the stacked normal equations grams @ b = crosses, b per row.

    bad is the gate mask of grams; a caller that gated a larger stack
    passes its slice, otherwise it is computed here.  When any Gram
    fails, SingularDesign is raised with message where(j), j the
    position of the first failing Gram.
    """
    if bad is None:
        bad = _singular_grams(grams)
    if bad.any():
        raise SingularDesign(where(int(np.argmax(bad))))
    return np.linalg.solve(grams, crosses[:, :, None])[:, :, 0]


def solve_gram(gram, cross, context=""):
    """Solve gram @ coeffs = cross with a condition estimate.

    cross is a vector, or a matrix with one right-hand side per column.
    Raises SingularDesign when the reciprocal condition number falls
    below RCOND_MIN (context, if given, names the offending window).
    """
    evals, evecs = np.linalg.eigh(gram)
    if evals[-1] <= 0.0 or evals[0] <= evals[-1] * RCOND_MIN:
        raise SingularDesign("Gram matrix is numerically singular%s"
                             % (" (%s)" % context if context else ""))
    scale = evals if np.ndim(cross) == 1 else evals[:, None]
    return evecs @ ((evecs.T @ cross) / scale)


@dataclass(frozen=True)
class FittedCoefficients:
    """Least-squares coefficients for one candidate predictor.

    coeffs has length k; h is the horizon the coefficients target;
    sample_end is the index i of the last observation the fit was allowed
    to use.
    """

    coeffs: tuple
    k: int
    h: int
    method: str
    sample_end: int


class GramAccumulator:
    """Incremental normal-equation sums sum x_j(k) x_j(k)' and
    sum x_j(k) * target_j.

    Rank-1 updates only; every coefficient read performs a fresh solve,
    so accumulating across an expanding window reproduces the
    from-scratch fit at each step.  Single-writer: do not share while
    updating.
    """

    def __init__(self, k):
        self.k = int(k)
        self.gram = np.zeros((k, k))
        self.cross = np.zeros(k)
        self.count = 0

    def add(self, row, target):
        row = np.asarray(row, dtype=float)
        self.gram += np.outer(row, row)
        self.cross += row * float(target)
        self.count += 1

    def coefficients(self, context=""):
        return solve_gram(self.gram, self.cross, context)


def fit_one_step(series, k, i=None):
    """One-step-ahead least squares of x_{j+1} on x_j(k).

    Solves the normal equations over rows j = k..i-1, i.e. using
    observations x_1..x_i only.  i defaults to the series length.

    Parameters
    ----------
    series : array of float
    k : int
        Working order.
    i : int, optional
        Sample end (at least 2k so the Gram can have full rank).

    Returns
    -------
    FittedCoefficients
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if i is None:
        i = n
    if i > n:
        raise ValueError("sample end %d exceeds series length %d" % (i, n))
    if i < 2 * k:
        raise SingularDesign(
            "sample end %d leaves fewer than %d regressor rows" % (i, k))
    X = lag_matrix(series, k, k, i - 1)
    y = series[k:i]
    coeffs = solve_gram(X.T @ X, X.T @ y, "one-step rows j=%d..%d" % (k, i - 1))
    return FittedCoefficients(coeffs=tuple(float(c) for c in coeffs),
                              k=int(k), h=1, method=PLUG_IN, sample_end=int(i))


def plug_in_multi(one_step, h):
    """Multistep plug-in coefficients from a fitted one-step model.

    Applies the (h-1)-th companion power of the fitted coefficients to
    themselves, which is algebraically the same as iterating one-step
    forecasts h - 1 times.  h = 1 returns the input unchanged.
    """
    if one_step.method != PLUG_IN or one_step.h != 1:
        raise ValueError("plug_in_multi needs a one-step plug-in fit")
    if h < 1:
        raise ValueError("horizon must be at least 1")
    if h == 1:
        return one_step
    a = np.asarray(one_step.coeffs, dtype=float)
    v = a.copy()
    for _ in range(h - 1):
        v = companion_apply(a, v)
    return FittedCoefficients(coeffs=tuple(float(c) for c in v),
                              k=one_step.k, h=int(h), method=PLUG_IN,
                              sample_end=one_step.sample_end)


def _plug_in_powers(coeffs, h):
    """h-step plug-in coefficients of a stack of one-step fits, one per row.

    Row by row this is plug_in_multi: each fit a becomes A^(h-1) applied
    to a, with A the companion matrix of a.
    """
    v = coeffs
    for _ in range(h - 1):
        w = coeffs * v[:, :1]
        w[:, :-1] += v[:, 1:]
        v = w
    return v


def fit_direct(series, k, h, i=None):
    """Direct h-step least squares of x_{j+h} on x_j(k).

    Rows run over j = k..i-h; for h = 1 this coincides with fit_one_step
    up to the method label.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if h < 1:
        raise ValueError("horizon must be at least 1")
    if i is None:
        i = n
    if i > n:
        raise ValueError("sample end %d exceeds series length %d" % (i, n))
    if i - h < 2 * k - 1:
        raise SingularDesign(
            "sample end %d leaves fewer than %d direct rows at h=%d"
            % (i, k, h))
    X = lag_matrix(series, k, k, i - h)
    y = series[k + h - 1:i]
    coeffs = solve_gram(X.T @ X, X.T @ y,
                        "direct rows j=%d..%d, h=%d" % (k, i - h, h))
    return FittedCoefficients(coeffs=tuple(float(c) for c in coeffs),
                              k=int(k), h=int(h), method=DIRECT,
                              sample_end=int(i))


def residual_mse(series, coeffs, h, K):
    """In-sample residual mean square over the shared candidate window.

    Sums {x_{j+h} - coeffs' x_j(k)}^2 over j = K..n-h and divides by
    n - h - K (one less than the number of terms — the convention is
    deliberate and pinned by tests), where n is the fit's sample end.
    Using K rather than k keeps the window identical across candidate
    orders, so residual sums are comparable.
    """
    series = np.asarray(series, dtype=float)
    if coeffs.h != h:
        raise ValueError("coefficients target h=%d, asked for h=%d"
                         % (coeffs.h, h))
    if coeffs.k > K:
        raise ValueError("candidate order %d exceeds K=%d" % (coeffs.k, K))
    n = coeffs.sample_end
    if n > series.size:
        raise ValueError("sample end %d exceeds series length %d"
                         % (n, series.size))
    if n - h - K < 1:
        raise WindowTooShort("residual window j=%d..%d has no usable "
                             "divisor" % (K, n - h))
    X = lag_matrix(series, coeffs.k, K, n - h)
    resid = series[K + h - 1:n] - X @ np.asarray(coeffs.coeffs)
    return math.fsum((resid * resid).tolist()) / (n - h - K)


def fitted_ma_weights(one_step, J):
    """Fitted MA weights b_0..b_J implied by a one-step fit.

    b_0 = 1 and b_j = sum_{l=1}^{min(j,K)} b_{j-l} * a_l — the impulse
    response of the fitted levels recursion.
    """
    if one_step.h != 1:
        raise ValueError("fitted_ma_weights needs a one-step fit")
    if J < 0:
        raise ValueError("J must be nonnegative")
    return impulse_response(np.asarray(one_step.coeffs, dtype=float), J)

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
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteSeries, SingularDesign, WindowTooShort
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
    return _lag_view(series, k)[first - 1:last]


def _lag_view(series, K):
    """Zero-padded order-K lag view: row j - 1 is x_j(K), zeros before
    the sample; [first - 1:last, :k] is lag_matrix(series, k, first, last)
    for first >= k, values and strides alike.  A stack of series (one per
    row) gives one such view per series."""
    padded = np.concatenate((np.zeros(series.shape[:-1] + (K - 1,)), series),
                            axis=-1)
    return sliding_window_view(padded, K, axis=-1)[..., ::-1]


def _require_finite(series):
    """Reject NaN and infinite values before any Gram is formed."""
    if not np.isfinite(series).all():
        raise NonFiniteSeries("the series holds NaN or infinite values")


def _clears_gate(evals):
    """The condition gate on ascending eigenvalues (the last axis), for
    one Gram or a stack; NaN fails it."""
    low, high = evals[..., 0], evals[..., -1]
    return (low > high * RCOND_MIN) & (high > 0.0)


def gram_is_invertible(gram):
    """True when the Gram matrix clears the reciprocal-condition gate."""
    try:
        return bool(_clears_gate(np.linalg.eigvalsh(gram)))
    except np.linalg.LinAlgError:  # no convergence on an infinite entry
        return False


def _finite_eigvalsh(grams):
    """Ascending eigenvalues of a stack of Grams, NaN for a Gram holding
    NaN or inf (eigvalsh may raise on one instead of converging)."""
    finite = np.isfinite(grams).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(grams)
    evals = np.full(grams.shape[:-1], np.nan)
    evals[finite] = np.linalg.eigvalsh(grams[finite])
    return evals


def _singular_grams(grams):
    """Mask of the Gram matrices in a stack that fail the condition gate;
    a Gram holding NaN or inf fails it."""
    return ~_clears_gate(_finite_eigvalsh(grams))


def _singular_prefix(grams):
    """_singular_grams of a Gram prefix, with eigvalsh on few entries.

    Entry i + 1 of the stack must be the rounded sum of entry i and an
    outer product x x' (a cumsum of outer products).  Only the anchors,
    a fixed geometric grid of about 4 log2(T) entries, are gated by
    eigvalsh; the entries their smallest eigenvalues do not certify go
    through _singular_grams.  The mask is the one _singular_grams gives.
    """
    # The certificate.  In exact arithmetic G_i = G_a + sum_j x_j x_j'
    # for a < i, so lambda_min(G_i) >= lambda_min(G_a) (Weyl) and
    # lambda_max(G_i) <= tr(G_i).  Entry i therefore clears the gate
    # when an anchor a <= i has eigvalsh minimum lo_a > c tr(G_i), with
    #     c = RCOND_MIN + 8 (T + k) k eps.
    # The allowance covers, in units of eps tr(G_i): the cumsum rounding
    # between a and i, at most (i - a + 1) k / 2 in 2-norm (each rounded
    # partial-sum entry is at most tr(G_i) in size: Cauchy-Schwarz, and
    # the diagonal only grows); eigvalsh's backward error p(k) at a and
    # again at i, for any p(k) <= 4 k^2; and the rounding of the trace,
    # which scales RCOND_MIN by 1 + O(k eps).  That is a safety factor of
    # 16 on the cumsum term.  NaN or inf never certifies: a non-finite
    # anchor's minimum is NaN and drops out of the running maximum (fmax),
    # and an entry holding NaN or inf has a NaN or inf trace (in a prefix
    # an off-diagonal entry is at most half the sum of two diagonal
    # ones), so its comparison is False.
    T, k = grams.shape[0], grams.shape[-1]
    c = RCOND_MIN + 8 * (T + k) * k * np.finfo(float).eps
    grid = np.floor(2.0 ** (np.arange(4 * T.bit_length() + 1) / 4)) - 1
    anchors = np.union1d(np.arange(8), grid.astype(int))
    anchors = anchors[anchors < T]
    evals = _finite_eigvalsh(grams[anchors])
    low = np.fmax.accumulate(evals[:, 0])
    last = np.searchsorted(anchors, np.arange(T), side="right") - 1
    unsure = ~(low[last] > c * np.einsum("bii->b", grams))
    unsure[anchors] = False
    bad = np.zeros(T, dtype=bool)
    bad[anchors] = ~_clears_gate(evals)
    bad[unsure] = _singular_grams(grams[unsure])
    return bad


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


def _gated_eigh(grams, context=""):
    """Eigendecompositions of a Gram matrix, or of a stack of them, that
    all clear the gate."""
    try:
        eig = np.linalg.eigh(grams)
    except np.linalg.LinAlgError:  # no convergence on an infinite entry
        eig = (np.full(1, np.nan), None)
    if not _clears_gate(eig[0]).all():
        raise SingularDesign("Gram matrix is numerically singular%s"
                             % (" (%s)" % context if context else ""))
    return eig


def _eig_solve(eig, cross):
    """Solve gram @ coeffs = cross from the Gram's eigendecomposition.

    cross is a vector or a matrix (one right-hand side per column), or a
    stack of them matching a stack of decompositions."""
    evals, evecs = eig
    cross = np.asarray(cross)
    vectors = cross.ndim == evals.ndim  # solved as one-column matrices
    if vectors:
        cross = cross[..., None]
    out = evecs @ ((evecs.swapaxes(-1, -2) @ cross) / evals[..., None])
    return out[..., 0] if vectors else out


def _normal_fit(X, y, context):
    """Least squares of y on X, or of each y on its X in a stack: the Gram
    X'X, its gated eigendecomposition (for reuse by other solves) and the
    coefficients."""
    Xt = X.swapaxes(-1, -2)
    gram = Xt @ X
    eig = _gated_eigh(gram, context)
    return gram, eig, _eig_solve(eig, Xt @ y[..., None])[..., 0]


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


def fit_one_step(series, k, i=None):
    """One-step-ahead least squares of x_{j+1} on x_j(k).

    This is fit_direct at h = 1 under the plug-in label: rows
    j = k..i-1, i.e. observations x_1..x_i only, with the sample end i
    (default: the series length) at least 2k so the Gram can have full
    rank.
    """
    return replace(fit_direct(series, k, 1, i), method=PLUG_IN)


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

    Rows run over j = k..i-h; for h = 1 this is fit_one_step up to the
    method label.
    """
    series = np.asarray(series, dtype=float)
    _require_finite(series)
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
    _, _, coeffs = _normal_fit(lag_matrix(series, k, k, i - h),
                               series[k + h - 1:i],
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
    resid = _residuals(_lag_view(series, coeffs.k), series,
                       np.asarray(coeffs.coeffs), h, K, n)
    return float(row_sums([resid * resid])[0]) / (n - h - K)


def _residuals(lags, series, coeffs, h, K, n):
    """Residuals x_{j+h} - coeffs' x_j(k), j = K..n-h, of a coefficient
    vector; lags is _lag_view(series, m) for some m >= k.  Stacks of
    series, lag views and coefficient vectors give one row per series."""
    if n - h - K < 1:
        raise WindowTooShort("residual window j=%d..%d has no usable "
                             "divisor" % (K, n - h))
    fitted = lags[..., K - 1:n - h, :coeffs.shape[-1]] @ coeffs[..., None]
    return series[..., K + h - 1:n] - fitted[..., 0]


#: Working memory of a _SquareSums buffer, in bytes.
SUM_BUFFER_BYTES = 1 << 18


def row_sums(rows):
    """Correctly rounded sum of each row of a 2-D array.

    Where math.fsum(row) returns, the sum equals it.  Where fsum raises
    OverflowError (a partial sum overflows), the sum is the exact sum
    rounded, or +-inf when that exceeds the float range.  A row holding
    inf or NaN sums as in np.sum.  Finite rows never give NaN.
    """
    return _sum_rows(np.array(rows, dtype=float))


def _sum_rows(rows):
    """row_sums by error-free extraction, overwriting rows.

    Each level adds sigma = 2^(e + shift) to every entry and takes it off
    again (Rump, Ogita and Oishi, "Accurate floating-point summation,
    Part I", SIAM J. Sci. Comput. 31(1), 2008), with 2^e > max|rows| and
    2^shift > 2 (columns + 1).  That splits each entry exactly into a
    part q on the grid eps * sigma, whose row sums are exact in any order
    because no partial sum reaches sigma, and a remainder below
    eps * sigma, which the next level splits again until it is zero.  A
    row's level sums then add up exactly to its sum: when only the first
    two are nonzero one addition rounds it correctly, otherwise
    math.fsum does.  One sigma serves all rows, so each level is a few
    passes with a scalar.  A row with an entry of 2^1023 / 2^shift or
    more would overflow sigma, and a non-finite row has no grid: both
    are summed one by one, exactly (Fraction) or by np.sum.
    """
    count, width = rows.shape
    out = np.zeros(count)
    if not rows.size:
        return out
    shift = (width + 1).bit_length() + 1
    work = np.abs(rows)
    special = ~(work.max(axis=1) < 2.0 ** (1023 - shift))
    if special.any():
        for i in np.flatnonzero(special):
            out[i] = _sum_special_row(rows[i])
        rows[special] = 0.0
        work[special] = 0.0
    top = float(work.max())
    levels = []
    while top > 0.0:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
        np.add(rows, sigma, out=work)
        np.subtract(work, sigma, out=work)
        np.subtract(rows, work, out=rows)
        levels.append(work.sum(axis=1))
        top = max(float(rows.max()), -float(rows.min()))
    levels = np.array(levels).reshape(-1, count)
    regular = ~special
    out[regular] = levels[:2].sum(axis=0)[regular]
    for i in np.flatnonzero(levels[2:].any(axis=0)):
        out[i] = math.fsum(levels[:, i].tolist())
    return out


def _sum_special_row(row):
    """Sum of a row row_sums cannot split: np.sum when it holds inf or
    NaN, else the exact sum correctly rounded, +-inf when it overflows."""
    if not np.isfinite(row).all():
        return row.sum()
    exact = sum(map(Fraction, row.tolist()))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


class _SquareSums:
    """Exact sums of squares of many vectors through one fixed buffer.

    add(vectors) queues the squares of each row of a 2-D array of at
    most width columns and returns the index of the first one's sum;
    totals() returns every sum, in the order queued, each equal to
    math.fsum of its squares.  The buffer (at most SUM_BUFFER_BYTES, and
    no more rows than will be queued) is summed by _sum_rows whenever
    it fills, so memory does not grow with the number of vectors.
    """

    def __init__(self, width, rows):
        fits = SUM_BUFFER_BYTES // (8 * max(width, 1))
        self._buffer = np.empty((max(1, min(rows, fits)), width))
        self._fill = 0
        self._queued = 0
        self._done = []

    def add(self, vectors):
        first = self._queued
        width = vectors.shape[1]
        start = 0
        while start < len(vectors):
            if self._fill == len(self._buffer):
                self._flush()
            stop = min(len(vectors), start + len(self._buffer) - self._fill)
            rows = self._buffer[self._fill:self._fill + stop - start]
            np.multiply(vectors[start:stop], vectors[start:stop],
                        out=rows[:, :width])
            rows[:, width:] = 0.0
            self._fill += stop - start
            start = stop
        self._queued += len(vectors)
        return first

    def _flush(self):
        self._done.append(_sum_rows(self._buffer[:self._fill]))
        self._fill = 0

    def totals(self):
        self._flush()
        return np.concatenate(self._done)


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

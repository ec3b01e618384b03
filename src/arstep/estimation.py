"""Least-squares machinery for one-step, multistep, and direct fits.

Conventions shared by every routine here: a series array holds x_1..x_n
(0-based storage of the 1-based convention), the order-k regressor for
1-based time j is x_j(k) = (x_j, x_{j-1}, ..., x_{j-k+1})', and the first
usable regressor row is j = k — estimation windows never reach into the
zero pre-sample.

Every Gram matrix passes a reciprocal-condition gate on its eigenvalues
before it is solved: by LU in _gated_solve and in the padded passes of
selection._criteria, which gate every order before one solve, and by a
factor shared by every order in the APE refits (selection._factor_prefix,
LU where it is ill-conditioned; _singular_prefix gates every order).  A
Gram below the threshold raises SingularDesign rather than silently
pseudo-inverting (unit-root regressors make these matrices wildly
scaled, and a corrupted solve would poison every sequential-prediction
sum built on top of it).  A series enters the fits divided by a power of
two (_normalized), so no Gram underflows or overflows.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NonFiniteSeries, SingularDesign, WindowTooShort
from .model_core import (DIRECT, PLUG_IN, _as_series, _check_predictor,
                         _companion_image, _count, _position, _unscaled,
                         impulse_response)

#: Reciprocal-condition threshold below which a Gram matrix is singular.
RCOND_MIN = 1e-13


def lag_matrix(series, k, first, last):
    """Stack of regressor rows x_j(k) for j = first..last (1-based).

    Returns an (last - first + 1) x k array whose row for time j is
    (x_j, x_{j-1}, ..., x_{j-k+1}).  Requires first >= k so no pre-sample
    values are needed.
    """
    series = _as_series(series)
    n = series.size
    _count("k", k, 1)
    first, last = _position("first", first), _position("last", last)
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
    step = padded.strides[-1]
    return as_strided(padded[..., K - 1:], series.shape + (K,),
                      padded.strides[:-1] + (step, -step), writeable=False)


def _require_finite(series):
    """Reject NaN and infinite values before any Gram is formed."""
    if not np.isfinite(series).all():
        raise NonFiniteSeries("the series holds NaN or infinite values")


def _clears_gate(evals):
    """The condition gate on ascending eigenvalues (the last axis), for
    one Gram or a stack; NaN fails it."""
    low, high = evals[..., 0], evals[..., -1]
    return (low > high * RCOND_MIN) & (high > 0.0)


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


def _certified(low, trace, steps, K):
    """The certificate that lets a gate skip eigvalsh: True where a Gram
    of order K or below surely clears the gate, given the eigvalsh
    minimum low of an anchor Gram and a trace bound trace.

    Both uses share one setting.  In exact arithmetic on the rounded
    inputs, the Gram B gated and the anchor A are a common start S plus
    sums of outer products x x', and B is a principal block of A plus
    such a sum.  Then lambda_min(B) >= lambda_min(A) (Weyl, then Cauchy
    interlacing for the block) and lambda_max(B) <= tr(B), so B clears
    the gate when
        low > c trace,  c = RCOND_MIN + 8 (steps + K) K eps,
    trace >= tr(A), tr(B) and steps >= the rounded steps between S and
    either matrix.  The allowance covers, in units of eps trace:
    - the rounding of the sums: each entry takes at most steps rounded
      outer-product terms and additions, so its error is at most
      steps eps (|S_ij| + sum |x_i x_j|); |S_ij| <= sqrt(S_ii S_jj) up to
      a factor 1 + O(n eps) from S's own rounding, so the error matrix
      has 2-norm at most about steps eps tr, at A and at B;
    - eigvalsh's backward error, p(K) eps ||.|| with p(K) <= 4 K^2, at A
      (for low) and at B (for its computed minimum and maximum), hence a
      trace bound covering both;
    - the rounding of the trace and of c trace, and the gate's
      RCOND_MIN times the errors at B, which scale RCOND_MIN by
      1 + O(K^2 eps).
    That is at most (2 steps + 8 K^2 + 1) eps trace, and 8 (steps + K) K
    exceeds it by a safety factor.  Diagonal entries that only pad a
    Gram (selection._padded_grams) count in its trace, which only makes
    the test more cautious.  NaN never certifies: the test is False for
    a NaN minimum (a non-finite anchor's) and for a NaN or infinite
    trace.
    """
    return low > (RCOND_MIN + 8 * (steps + K) * K * np.finfo(float).eps) \
        * trace


def _singular_prefix(grams):
    """Gate masks of every order of a Gram prefix, from one eigvalsh sweep.

    Entry i + 1 of the order-K stack must be the rounded sum of entry i
    and an outer product x x'.  Column k - 1 of the (T, K) mask is
    _singular_grams of the trailing k x k blocks, order k's Grams.  Only
    order K's anchors, a fixed geometric grid of about 4 log2(T) entries,
    go through eigvalsh, and only the (entry, order) pairs they do not
    certify through _singular_grams, one call per order that has any.
    """
    # The certificate (_certified), with anchor a <= i at order K, start
    # S = G_a and at most T steps: G_i sums more rows than G_a, and order
    # k's block of G_i is a principal block of G_i, so tr(G_i) bounds
    # every trace (the diagonal only grows).  Order k's own trace would
    # not do, since lo_a's error scales with tr(G_a).  An entry holding
    # NaN or inf has a NaN or infinite trace (in a prefix an off-diagonal
    # entry is at most half the sum of two diagonal ones); fmax drops a
    # non-finite anchor's NaN minimum.
    T, K = grams.shape[0], grams.shape[-1]
    grid = np.floor(2.0 ** (np.arange(4 * T.bit_length() + 1) / 4)).astype(int)
    marked = np.zeros(T, dtype=bool)  # np.union1d would import numpy.ma
    marked[:8] = True
    marked[grid[grid <= T] - 1] = True
    anchors = np.flatnonzero(marked)
    evals = _finite_eigvalsh(grams[anchors])
    low = np.fmax.accumulate(evals[:, 0])
    last = np.searchsorted(anchors, np.arange(T), side="right") - 1
    unsure = ~_certified(low[last], np.abs(np.einsum("bii->b", grams)), T, K)
    bad = np.zeros((T, K), dtype=bool)
    bad[anchors, -1] = ~_clears_gate(evals)
    for k in range(1, K + 1):
        unsure[anchors] &= k < K  # order K's anchors are gated already
        if unsure.any():
            bad[unsure, k - 1] = _singular_grams(grams[unsure, K - k:, K - k:])
    return bad


def _singular_orders(grams):
    """_singular_grams of a (series, order) stack of padded Grams
    (selection._padded_grams) whose last order is each series' largest,
    its anchor, from one eigvalsh of each anchor.

    Order k's k x k Gram must be its block of the order-K Gram S of the
    series plus the rounded outer products of rows j = k..K-1, added one
    by one (selection._suffix_sums).  An anchor a's leading k x k block
    is S's plus the rows j = a..K-1 only, so the certificate
    (_certified, at most K steps) applies with trace bound
    max(tr P_k, tr P_a) of the padded Grams.  Only the orders left
    uncertified go through eigvalsh, in one _singular_grams call.
    """
    K = grams.shape[-1]
    evals = _finite_eigvalsh(grams[:, -1])
    traces = np.einsum("sgii->sg", grams)
    unsure = ~_certified(evals[:, :1], np.maximum(traces, traces[:, -1:]),
                         K, K)
    unsure[:, -1] = False  # the anchors are gated already
    bad = np.zeros(grams.shape[:2], dtype=bool)
    bad[:, -1] = ~_clears_gate(evals)
    if unsure.any():
        bad[unsure] = _singular_grams(grams[unsure])
    return bad


def _gated_solve(grams, rhs, where):
    """Solve grams @ x = rhs by LU for a Gram matrix, or for each Gram of
    a stack, rhs holding one right-hand side per column.

    When any Gram fails the condition gate (_singular_grams),
    SingularDesign is raised with message where(j), j the position of
    the first failing Gram.
    """
    bad = _singular_grams(grams)
    if bad.any():
        raise SingularDesign(where(int(np.argmax(bad))))
    return np.linalg.solve(grams, rhs)


def _normalized(series):
    """(series * 2^-e, e) with e the exponent (math.frexp) of max|x|, one
    per row of a stack: the scaled max|x| lies in [1/2, 1).  The scaling
    is exact (barring entries 300 decades below max|x|), so coefficients
    do not depend on it; squares and their sums scale back by 2^(2e)."""
    e = np.frexp(np.abs(series).max(axis=-1, initial=0.0))[1]
    return np.ldexp(series, -e[..., None]), e


@dataclass(frozen=True)
class FittedCoefficients:
    """Least-squares coefficients for one candidate predictor.

    coeffs has length k; h is the horizon the coefficients target;
    sample_end is the index i of the last observation the fit was allowed
    to use.  Building one checks it, as dataclasses.replace does: the
    predictor rule of PredictorSpec (method, then k and h at least 1),
    then finite coefficients; ValueError otherwise.
    """

    coeffs: tuple
    k: int
    h: int
    method: str
    sample_end: int

    def __post_init__(self):
        _check_predictor(self.method, self.k, self.h)
        if not np.isfinite(np.asarray(self.coeffs, dtype=float)).all():
            raise ValueError("coefficients hold NaN or infinite values")


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
    forecasts h - 1 times; at h = 1 the coefficients are the input's.
    A powering that overflows is a ValueError, from FittedCoefficients.
    """
    if one_step.method != PLUG_IN or one_step.h != 1:
        raise ValueError("plug_in_multi needs a one-step plug-in fit")
    h = _count("h", h, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _companion_image(one_step.coeffs, h)  # inf and NaN are refused
    return FittedCoefficients(coeffs=tuple(float(c) for c in v),
                              k=one_step.k, h=h, method=PLUG_IN,
                              sample_end=one_step.sample_end)


def fit_direct(series, k, h, i=None):
    """Direct h-step least squares of x_{j+h} on x_j(k).

    Rows run over j = k..i-h; for h = 1 this is fit_one_step up to the
    method label.
    """
    series = _as_series(series)
    _require_finite(series)
    n = series.size
    h = _count("h", h, 1)
    i = n if i is None else _position("i", i)
    if i > n:
        raise ValueError("sample end %d exceeds series length %d" % (i, n))
    if i - h < 2 * k - 1:
        raise SingularDesign(
            "sample end %d leaves fewer than %d direct rows at h=%d"
            % (i, k, h))
    series = _normalized(series)[0]
    X = lag_matrix(series, k, k, i - h)
    coeffs = _gated_solve(X.T @ X, X.T @ series[k + h - 1:i, None],
                          lambda _: "singular Gram, direct rows j=%d..%d, "
                          "h=%d" % (k, i - h, h))[:, 0]
    return FittedCoefficients(coeffs=tuple(float(c) for c in coeffs),
                              k=int(k), h=h, method=DIRECT,
                              sample_end=i)


def residual_mse(series, coeffs, h, K):
    """In-sample residual mean square over the shared candidate window.

    Sums {x_{j+h} - coeffs' x_j(k)}^2 over j = K..n-h and divides by
    n - h - K (one less than the number of terms — the convention is
    deliberate and pinned by tests), where n is the fit's sample end.
    Using K rather than k keeps the window identical across candidate
    orders, so residual sums are comparable.  A series holding NaN or
    inf raises NonFiniteSeries; a sum past the float range is inf.
    """
    series = _as_series(series)
    _require_finite(series)
    h, K = _count("h", h, 1), _count("K", K, 1)
    if coeffs.h != h:
        raise ValueError("coefficients target h=%d, asked for h=%d"
                         % (coeffs.h, h))
    if coeffs.k > K:
        raise ValueError("candidate order %d exceeds K=%d" % (coeffs.k, K))
    n = coeffs.sample_end
    if n > series.size:
        raise ValueError("sample end %d exceeds series length %d"
                         % (n, series.size))
    _check_residual_window(K, n - h)
    series, e = _normalized(series)
    series = series[None, :n]
    padded = np.zeros((1, 1, K))
    padded[0, 0, :coeffs.k] = coeffs.coeffs
    with np.errstate(over="ignore"):  # a square past the float range is inf
        total = _residual_sums(_lag_view(series, K), series, padded, h)[0, 0]
    return float(_unscaled(total / (n - h - K), 2 * e))


def _check_residual_window(K, last):
    """Raise WindowTooShort when the residual window j = K..last has no
    usable divisor (last - K)."""
    if last - K < 1:
        raise WindowTooShort("residual window j=%d..%d has no usable "
                             "divisor" % (K, last))


def _residual_sums(lags, series, coeffs, h):
    """Exact sums of squared residuals x_{j+h} - b' x_j(K), j = K..n-h
    (a window the caller has checked), as a [fit, series] array, of every
    zero-padded coefficient vector b of coeffs[series, fit]; lags is
    _lag_view(series, K).

    The fitted values are products of a series' fits with its order-K
    lag window, in blocks that keep their residuals within
    SUM_BUFFER_BYTES: as many fits as fit the budget, and the fits of as
    many series.  Each block is squared and summed as it is made, and a
    series' blocks, so its sums, do not depend on the series beside it.
    """
    R, G, K = coeffs.shape
    n = series.shape[1]
    window = lags[:, K - 1:n - h].swapaxes(1, 2)
    width = n - h - K + 1
    fits = max(1, SUM_BUFFER_BYTES // (8 * width))
    chunk = max(1, fits // G)
    sums = np.empty((G, R))
    for r in range(0, R, chunk):
        for g in range(0, G, fits):
            s, f = slice(r, r + chunk), slice(g, g + fits)
            block = coeffs[s, f] @ window[s]
            np.subtract(series[s, None, K + h - 1:], block, out=block)
            np.square(block, out=block)
            sums[f, s] = _sum_rows(block.reshape(-1, width)).reshape(
                block.shape[:2]).T
    return sums


#: Working memory, in bytes, of one block of squares, or of one solve
#: array per order for each series of a criteria chunk.
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

    One level adds sigma = 2^(e + shift) to every entry and takes it off
    again (Rump, Ogita and Oishi, "Accurate floating-point summation,
    Part I", SIAM J. Sci. Comput. 31(1), 2008), with 2^e > max|rows| and
    2^shift > 2 (columns + 1).  That splits each entry exactly into a
    part q on the grid eps * sigma (eps = 2^-53), whose row sums s1 are
    exact in any order because no partial sum reaches sigma, and a
    remainder at most eps * sigma in size.  The remainders are summed in
    plain floats: over w = columns terms, any order errs by at most
    gamma_(w-1) w eps sigma <= 2 w^2 2^(e + shift - 106).  With s1 plus
    that float sum t = s + err exactly (TwoSum), s is the correctly
    rounded sum when |err| plus that bound is below half the gap at s,
    or a quarter of the gap above |s| when |s| is a power of two, where
    the gap below is half as wide (the rounding test of Part II).  The
    rows it leaves undecided (a zero row, a near-tie, a row far below
    the block's max) are summed exactly by math.fsum of s1 and the
    remainders.  One sigma serves all rows, so the level is a few passes
    with a scalar.  A row with an entry of 2^1023 / 2^shift or more
    would overflow sigma, and a non-finite row has no grid: both are
    summed one by one, exactly (Fraction) or by np.sum.
    """
    count, width = rows.shape
    out = np.zeros(count)
    if not rows.size:
        return out
    shift = (width + 1).bit_length() + 1
    peaks = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    special = ~(peaks < 2.0 ** (1023 - shift))
    if special.any():
        for i in np.flatnonzero(special):
            out[i] = _sum_special_row(rows[i])
        rows[special] = 0.0
        peaks[special] = 0.0
    top = float(peaks.max())
    if top == 0.0:
        return out
    e = math.frexp(top)[1]
    sigma = math.ldexp(1.0, e + shift)
    parts = rows + sigma
    parts -= sigma
    rows -= parts
    first, second = parts.sum(axis=1), rows.sum(axis=1)
    total = first + second
    late = total - first
    err = (first - (total - late)) + (second - late)
    half_gap = np.spacing(np.abs(total)) * np.where(
        np.abs(np.frexp(total)[0]) == 0.5, 0.25, 0.5)
    rest = math.ldexp(2 * width * width, e + shift - 106)
    out[~special] = total[~special]
    for i in np.flatnonzero(~(np.abs(err) + rest < half_gap) & ~special):
        out[i] = math.fsum([first[i], *rows[i].tolist()])
    return out


def _sum_special_row(row):
    """Sum of a row row_sums cannot split: np.sum when it holds inf or
    NaN, else the exact sum correctly rounded, +-inf when it overflows."""
    if not np.isfinite(row).all():
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as documented
            return row.sum()
    exact = sum(map(Fraction, row.tolist()))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def fitted_ma_weights(one_step, J):
    """Fitted MA weights b_0..b_J implied by a one-step fit.

    b_0 = 1 and b_j = sum_{l=1}^{min(j,K)} b_{j-l} * a_l — the impulse
    response of the fitted levels recursion.  Weights that leave the
    float range are a ValueError, as a plug_in_multi powering that
    overflows is.
    """
    if one_step.h != 1:
        raise ValueError("fitted_ma_weights needs a one-step fit")
    b = impulse_response(one_step.coeffs, J)
    if not np.isfinite(b).all():
        raise ValueError("fitted MA weights leave the float range")
    return b

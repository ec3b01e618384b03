"""Predictor selection: sequential prediction errors and penalized criteria.

Two selection procedures are implemented, both choosing a working order
*and* a method (plug-in vs. direct) for h-step prediction:

* ``select_by_ape`` ranks candidates by their accumulated prediction
  error — the running sum of out-of-sample squared forecast errors over
  an expanding estimation window (sequential / predictive least squares).
* ``select_by_criterion`` ranks candidates by penalized information
  criteria whose trace-form penalties estimate the asymptotic loss
  constants of each method, weighted by a vanishing factor C_n.

Both procedures share the same three-step shape: a first stage picks a
lower bound for the plug-in search from the one-step criterion, the
second stage minimizes the h-step criteria, and the final comparison
breaks the method tie in favor of the direct predictor.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NonFiniteCriterion, SeriesTooShort, SingularDesign,
                     WindowTooShort)
from .estimation import (SUM_BUFFER_BYTES, _check_residual_window,
                         _lag_view, _normalized, _require_finite,
                         _residual_sums, _singular_orders, _singular_prefix,
                         _sum_rows, lag_matrix)
from .model_core import (DIRECT, PLUG_IN, _as_series, _check_method,
                         _companion_image, _count, _power_sum, _unscaled,
                         companion_matrix, impulse_response)


@dataclass(frozen=True)
class PenaltyWeight:
    """Penalty factor C_n = multiplier * log(n) / n.

    The form guarantees C_n -> 0 while n * C_n / log(n) stays bounded
    below, which is what the consistency arguments for the penalized
    criteria need.  Presets A, B, C use multipliers 1, 2, 3.  A
    multiplier that is not finite and positive is a ValueError.
    """

    multiplier: float

    def __post_init__(self):
        if not (math.isfinite(self.multiplier) and self.multiplier > 0):
            raise ValueError("penalty multiplier must be finite and "
                             "positive, not %r" % (self.multiplier,))

    def value(self, n):
        if n < 2:
            raise ValueError("penalty needs n >= 2")
        _count("n", n, 2)
        return self.multiplier * math.log(n) / n


PENALTY_PRESETS = {
    "A": PenaltyWeight(1.0),
    "B": PenaltyWeight(2.0),
    "C": PenaltyWeight(3.0),
}

#: Default penalty: the middle preset, the best all-round performer.
DEFAULT_PENALTY = PENALTY_PRESETS["B"]


@dataclass
class SelectionOutcome:
    """Result of a selection procedure.

    criteria maps every evaluated (order, method) candidate to its
    h-step criterion value; first_stage holds the one-step values that
    produced the plug-in search bound; orders records the intermediate
    argmins ("first_stage", "direct", "plug_in"); m_h is the start index
    of the sequential sums (None for the penalized procedure).
    """

    k: int
    method: str
    criteria: dict
    m_h: int | None = None
    first_stage: dict = field(default_factory=dict)
    orders: dict = field(default_factory=dict)


def _argmin_smallest(values, stage="candidate"):
    """Key of the smallest value; ties go to the smallest key.  NaN never
    wins, and NonFiniteCriterion is raised when no value is finite."""
    best_k, best_v = None, math.inf
    for k in sorted(values):
        if values[k] < best_v:
            best_k, best_v = k, values[k]
    if best_k is None:
        raise NonFiniteCriterion("every %s criterion is NaN or infinite"
                                 % stage)
    return best_k


def _outcome(first_stage, direct_vals, plug_vals, scale=0, m_h=None):
    """Steps 2 and 3 of both procedures and their outcome.  plug_vals
    holds the plug-in candidates to record; the search takes those no
    smaller than the first-stage pick.  The picks are made on the values
    given; the outcome records them times 2^scale."""
    k_first = _argmin_smallest(first_stage, "first-stage")
    k_direct = _argmin_smallest(direct_vals, DIRECT)
    k_plug = _argmin_smallest({k: v for k, v in plug_vals.items()
                               if k >= k_first}, PLUG_IN)
    if direct_vals[k_direct] > plug_vals[k_plug]:
        chosen, method = k_plug, PLUG_IN
    else:
        chosen, method = k_direct, DIRECT
    criteria = {(k, DIRECT): v for k, v in direct_vals.items()}
    criteria.update({(k, PLUG_IN): v for k, v in plug_vals.items()})
    criteria, first_stage = (
        dict(zip(values, _unscaled(list(values.values()), scale).tolist()))
        for values in (criteria, first_stage))
    return SelectionOutcome(k=chosen, method=method, criteria=criteria,
                            m_h=m_h, first_stage=first_stage,
                            orders={"first_stage": k_first,
                                    "direct": k_direct,
                                    "plug_in": k_plug})


def min_start_index(series, K, h):
    """Smallest usable start index for the sequential prediction sums.

    Returns the smallest i >= 2K + h - 1 such that both the one-step
    Gram (rows j = K..i-1) and the direct Gram (rows j = K..i-h) at
    order K clear the invertibility gate.  Transient singular stretches
    are skipped rather than fatal; if no i up to n - h works, the series
    is too short (or too degenerate) to select on.
    """
    series, _, _, bad = _ape_prefix(series, K, h)
    return _start_index(series.size, K, h, bad)


def _shared_prefix(series, K):
    """Rows x_j(K), j = K..K+n-2, of the series with K - 1 zeros appended,
    and their Gram prefix: entry r is the Gram over rows j = K..K+r.

    Order k <= K reads its rows x_j(k), j = k..n-1, and Gram prefix from
    the last k columns (rows[:n - k, K - k:], grams[:n - k, K - k:, K - k:]):
    the same products, summed in the same order, as order k's own prefix.
    """
    padded = np.concatenate((series, np.zeros(K - 1)))
    rows = lag_matrix(padded, K, K, padded.size - 1)
    grams = rows[:, :, None] * rows[:, None, :]
    np.cumsum(grams, axis=0, out=grams)  # in place: one Gram-sized array
    return rows, grams


def _ape_prefix(series, K, h):
    """The set-up of the three APE entry points: (normalized series, its
    exponent e (_normalized), order K's shared prefix (_shared_prefix),
    the prefix's gate masks).

    K and h below 1 or not integers are a ValueError, then a series
    holding NaN or inf is NonFiniteSeries.  The masks are
    _singular_prefix of the entries from K - 1 on, where every start
    index and sum reads (a start index is at least 2K + h - 1, and a fit
    at sample end i reads entry i - lag - k, lag <= h); the earlier
    entries are marked failing.
    """
    series = _as_series(series)
    if K < 1 or h < 1:
        raise ValueError("K and h must be at least 1")
    _count("K", K, 1)
    _count("h", h, 1)
    _require_finite(series)
    series, e = _normalized(series)
    shared = _shared_prefix(series, K)
    bad = np.ones(shared[1].shape[:2], dtype=bool)
    bad[K - 1:] = _singular_prefix(shared[1][K - 1:])
    return series, e, shared, bad


def _start_index(n, K, h, bad):
    """min_start_index of a series of length n, read from order K's
    column of the gate masks bad of its Gram prefix (_ape_prefix)."""
    first = 2 * K + h - 1
    if n - h < first:
        raise SeriesTooShort(
            "need at least %d observations for K=%d, h=%d (have %d)"
            % (first + h, K, h, n))
    ends = np.arange(first, n - h + 1)
    clear = ~(bad[ends - 1 - K, -1] | bad[ends - h - K, -1])
    if not clear.any():
        raise SeriesTooShort(
            "no sample end up to %d yields invertible order-%d designs"
            % (n - h, K))
    return int(ends[np.argmax(clear)])


#: Bound on the condition number of an APE Gram, tr(G) ||U||_F^2, above
#: which its fit is an LU solve instead of a product with the shared
#: factor (_factor_prefix).
CHOLESKY_COND_MAX = 1e7

#: Prefix entries factored per chunk (_factor_prefix).
FACTOR_CHUNK = 64


def _lower_inverse(L):
    """Inverse of each lower-triangular matrix of a stack, row by row by
    forward substitution."""
    M = np.zeros_like(L)
    d = np.arange(L.shape[-1])
    M[:, d, d] = 1.0 / L[:, d, d]
    for i in range(1, L.shape[-1]):
        M[:, i, :i] = (L[:, i, None, :i] @ M[:, :i, :i])[:, 0] \
            * -M[:, i, i, None]
    return M


def _factor_prefix(grams, bad, first, last):
    """Overwrite entries first..last-1 of an order-K Gram prefix with
    factors that serve every order, and say which fits they cannot serve.

    Write G = R R', R upper triangular (R = J L J, L the Cholesky factor
    of J G J, J the order reversal).  Order k's Gram, the trailing k x k
    block of G, is then R_k R_k' with R_k the trailing block of R, so
    U = R^-1 holds every order's inverse factor as its trailing block U_k
    and order k solves its Gram as U_k' (U_k c).  bad holds the prefix's
    gate masks (_ape_prefix); each entry that clears order K's gate is
    overwritten with U, and the others keep their Gram.

    Returns (exact, kept).  exact[r - first, k - 1] is True where order k
    must solve entry r by LU instead: where the entry fails the gate, or
    where tr(G_k) ||U_k||_F^2, a bound on the condition number of G_k,
    exceeds CHOLESKY_COND_MAX.  kept holds copies of the Grams of the
    entries some order solves by LU, in entry order.  Entries are
    factored FACTOR_CHUNK at a time, and no entry's values depend on the
    others.
    """
    exact = np.ones((last - first, grams.shape[-1]), dtype=bool)
    kept = []
    for a in range(first, last, FACTOR_CHUNK):
        b = min(a + FACTOR_CHUNK, last)
        good = a + np.flatnonzero(~bad[a:b, -1])
        flipped = grams[good, ::-1, ::-1]
        inverse = _lower_inverse(np.linalg.cholesky(flipped))
        with np.errstate(over="ignore"):  # inf sends the fit to LU
            bound = (np.cumsum(np.einsum("bii->bi", flipped), axis=1)
                     * np.cumsum(np.einsum("bij,bij->bi", inverse, inverse),
                                 axis=1))
        exact[good - first] = bound > CHOLESKY_COND_MAX
        kept.append(grams[a:b][exact[a - first:b - first].any(axis=1)])
        grams[good] = inverse[:, ::-1, ::-1]
    return exact, np.concatenate(kept)


def _ape_sums(series, shared, bad, orders, stages):
    """Accumulated prediction errors of several orders for several stages.

    shared is the width-K prefix and bad its gate masks (_ape_prefix);
    it overwrites the Grams (_factor_prefix).  Each stage (method, h, m)
    asks for the h-step sum of that method over the sample ends
    i = m..n-h, and {order: [its sum per stage]} is returned.  The
    orders are taken in the order given, in blocks whose squared errors,
    one row per stage, fit SUM_BUFFER_BYTES; each block is summed
    exactly (_sum_rows) as soon as it is made, and a sum does not depend
    on the block.  Every Gram those refits need is an entry of the
    order's prefix: the one-step fit behind plug-in at sample end i reads
    entry i-1-k, the direct h-step fit entry i-h-k (so direct at h = 1 is
    the one-step fit).  The first stage's entries, its window, must hold
    every later stage's (in select_by_ape the one-step window holds the
    direct one).  The stages use at most two fit lags, 1 and H, so one
    solve per entry serves them all: column 0 of its right-hand side
    holds the one-step cross-products, column 1 the lag-H ones (the
    one-step ones again when H = 1).  A column's solution does not depend
    on the other column, so a stage gets the same coefficients whatever
    stages share the solve.  The solve is a product with the entry's
    shared factor, or for the fits that factor cannot serve an LU solve
    of the Gram; neither depends on the other orders or entries asked
    for.  Before anything is solved, a singular entry raises
    SingularDesign naming the first stage's sample end that reads it, at
    the first order that has one.  A sum whose fits or errors leave the
    float range (a powering or a square that overflows, a solve whose
    pivot has no finite reciprocal) is inf, without a warning.
    """
    n = series.size
    rows, grams = shared
    K = rows.shape[1]
    lags = [1 if method == PLUG_IN else h for method, h, _ in stages]
    m = stages[0][2]
    H = max(lags)
    windows = {}
    for k in orders:
        lo, hi = m - lags[0] - k, n - stages[0][1] - lags[0] - k + 1
        failing = bad[lo:hi, k - 1]
        if failing.any():
            raise SingularDesign("singular design at sample end i=%d"
                                 % (m + int(np.argmax(failing))))
        windows[k] = lo, hi
    first = min(lo for lo, _ in windows.values())
    exact, kept = _factor_prefix(
        grams, bad, first, max(hi for _, hi in windows.values()))
    slot = np.cumsum(exact.any(axis=1)) - 1
    width = n - stages[0][1] - m + 1  # the first stage's errors are longest
    size = max(1, SUM_BUFFER_BYTES // (8 * width * len(stages)))
    sums = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(0, len(orders), size):
            ks = orders[b:b + size]
            errors = np.zeros((len(ks), len(stages), width))
            for k, order_errors in zip(ks, errors):
                lo, hi = windows[k]
                c = K - k
                rows_k = rows[:, c:]
                cross = np.zeros((hi, k, 2))
                np.multiply(rows_k[:hi], series[k:k + hi, None],
                            out=cross[:, :, 0])
                stop = min(hi, n - H - k + 1)
                np.multiply(rows_k[:stop],
                            series[k + H - 1:k + H - 1 + stop, None],
                            out=cross[:stop, :, 1])
                np.cumsum(cross, axis=0, out=cross)
                factor = grams[lo:hi, c:, c:]
                coeffs = factor.swapaxes(-1, -2) @ (factor @ cross[lo:])
                lu = exact[lo - first:hi - first, k - 1]
                if lu.any():
                    coeffs[lu] = np.linalg.solve(
                        kept[slot[lo - first:hi - first][lu], c:, c:],
                        cross[lo:][lu])
                for row, (method, h, m), lag in zip(order_errors, stages,
                                                    lags):
                    start = m - lag - k - lo
                    fits = coeffs[start:start + n - h - m + 1, :,
                                  0 if lag == 1 else 1]
                    if method == PLUG_IN:
                        fits = _companion_image(fits, h)
                    tails = rows_k[np.arange(m, n - h + 1) - k]
                    np.subtract(series[m + h - 1:n],
                                np.einsum("bk,bk->b", fits, tails),
                                out=row[:n - h - m + 1])
            np.square(errors, out=errors)
            totals = _sum_rows(errors.reshape(-1, width))
            totals[np.isnan(totals)] = math.inf  # inf met 0 or -inf
            sums.update(zip(ks, totals.reshape(len(ks), -1).tolist()))
    return sums


def _candidate_order(k, K):
    """k as an int, if it is a candidate order: 1 <= k <= K, then the
    integer rule (_count); ValueError otherwise."""
    if not 1 <= k <= K:
        raise ValueError("candidate order must satisfy 1 <= k <= K")
    return _count("k", k, 1)


def accumulated_prediction_error(series, k, h, method, K):
    """Accumulated squared out-of-sample h-step prediction errors.

    For each sample end i from min_start_index(series, K, h) through
    n - h, the candidate (k, method) is refitted on x_1..x_i (a Gram
    prefix entry plus a fresh solve per step), x_{i+h} is forecast, and
    the squared errors are summed exactly and rounded once
    (estimation.row_sums).  The window only ever expands.

    Parameters
    ----------
    series : array of float
    k : int
        Candidate order, 1 <= k <= K.
    h : int
        Horizon.
    method : {"plug-in", "direct"}
    K : int
        Largest candidate order (fixes the start index, and the order-K
        Gram prefix whose factors serve every order).

    Returns
    -------
    float
    """
    _check_method(method)
    k = _candidate_order(k, K)
    series, e, shared, bad = _ape_prefix(series, K, h)
    m = _start_index(series.size, K, h, bad)
    total = _ape_sums(series, shared, bad, (k,), ((method, h, m),))[k][0]
    return float(_unscaled(total, 2 * e))


def select_by_ape(series, h, K):
    """Order-and-method selection by accumulated prediction error.

    Step 1 picks the one-step direct minimizer; step 2 minimizes the
    h-step direct sums over all orders and the h-step plug-in sums over
    orders no smaller than the step-1 pick; step 3 keeps the plug-in
    candidate only when it beats the direct one strictly (ties go to
    direct).  Argmin ties inside each step take the smallest order.
    """
    series, e, shared, bad = _ape_prefix(series, K, h)
    m1 = _start_index(series.size, K, 1, bad)
    mh = _start_index(series.size, K, h, bad)
    # One pass per order serves all three stages.  Plug-in sums are
    # taken for every order because the step-1 pick is not known yet.
    # The first stage's window holds the other two (mh >= m1, and
    # mh - h >= m1 - 1 since sample end mh - h + 1 >= 2K clears the
    # one-step gate), and its error rows are the longest.
    # Order K's pass runs first, so that a series singular at several
    # orders fails on order K's sample end.
    stages = ((DIRECT, 1, m1), (DIRECT, h, mh), (PLUG_IN, h, mh))
    sums = _ape_sums(series, shared, bad, (K, *range(1, K)), stages)
    first_stage, direct_vals, plug_all = (
        {k: sums[k][stage] for k in range(1, K + 1)} for stage in range(3))
    k_first = _argmin_smallest(first_stage, "first-stage")
    return _outcome(first_stage, direct_vals,
                    {k: v for k, v in plug_all.items() if k >= k_first},
                    2 * int(e), mh)


def _suffix_sums(U, V, last, K):
    """Sums over the rows j = k..last of u_j v_j' of every order k = 1..K,
    order k at index k - 1 of axis 1.

    u_j and v_j are row j - 1 of U and V, stacks of row arrays (one per
    series); a row past last counts as zero.  The sum of order K is one
    strided product over the rows j = K..last, and order k's is order
    k + 1's plus row k's rank-one term: one cumsum down the orders, so
    no sum depends on which orders a caller reads.
    """
    top = slice(K - 1, max(last, K - 1))
    stop = max(0, min(K - 1, last))  # rows j = 1..stop, below order K's
    chain = np.empty(U.shape[:1] + (K, U.shape[-1], V.shape[-1]))
    chain[:, 0] = U[:, top].swapaxes(1, 2) @ V[:, top]
    chain[:, 1:K - stop] = 0.0
    np.multiply(U[:, :stop, :, None][:, ::-1], V[:, :stop, None, :][:, ::-1],
                out=chain[:, K - stop:])
    np.cumsum(chain, axis=1, out=chain)
    return chain[:, ::-1]


def _padded_grams(grams, inside):
    """Each Gram of a (series, order) stack cut to its order's leading
    block (inside: True on the first k of K positions), zero elsewhere
    but on the diagonal, which holds the block's [0, 0] entry.

    That entry lies between the block's extreme eigenvalues, so the
    padded Gram has the block's condition number, and with a right-hand
    side zero past row k it solves to the block's solution, zero past
    row k.
    """
    out = grams * (inside[:, :, None] & inside[:, None, :])
    d = np.arange(out.shape[-1])
    out[..., d, d] = np.where(inside, out[..., d, d], out[..., :1, 0])
    return out


def _criteria(series, h, K, penalties):
    """Criteria of every order 1..K for a stack of series, one series per
    row.

    Returns, per penalty and then per series, (first_stage, direct,
    plug_in, scale): {k: value} dicts of the series normalized by
    _normalized, and the exponent that reports them at its own scale
    (_outcome's arguments).  The first stage is the direct criterion at
    h = 1.

    Each stage, the one-step fits (rows j = k..n-1) and at h > 1 the
    direct window (rows j = k..n-h), is one padded pass over the orders
    per chunk of series: every array carries an order axis, and order
    k's K x K Gram holds its k x k Gram, padded by _padded_grams, so one
    LU solve fits every order of every series of the chunk.  The gate
    (estimation._singular_orders) runs eigvalsh on each series' largest
    order only, and on the lower orders its minimum does not certify.
    The Grams and cross-products of all orders come from _suffix_sums.
    The direct window's right-hand side is [X'y | I]: the direct
    coefficients and W^-1, whose products with Z'Z and with L give the
    trace penalties.  L, the plug-in cost matrix, is a Horner sum of
    powers of the padded companion matrix, cut to its order's block.
    Each residual sum is math.fsum's: each block of residuals is summed
    as it is made (_residual_sums).  Memory stays bounded: a stack is
    taken in chunks of as many series as keep one K x (K + 1) solve
    array per order, 8 K^2 (K + 1) bytes a series, within
    SUM_BUFFER_BYTES (at least one series, so one series' arrays grow as
    K^3), and each chunk's residuals in blocks of fits and series within
    the same budget.  At a fixed budget no value depends on how the
    series are split into chunks or blocks, so a stack's values are
    those of its series one at a time; the budget itself sets the shapes
    of the residual products, and changing it moves criteria by rounding
    (up to 2.5e-16 relative between 64 KiB and 16 MiB).

    The first-stage penalty tr(G^-1 G) is k; so is the plug-in one at
    h = 1 (L = I), where every h-step fit is the one-step fit.  Order K's
    one-step fit fixes sigma~^2 and b^ of each series.  Errors come as
    if candidate by candidate: the one-step gates of orders K, 1, ...,
    K - 1 (the residual window checked after order K's), then per
    ascending order its direct and weighted-average window lengths and
    the gate of W.  A Gram of any series that fails the gate fails the
    whole stack, with the error of the first chunk that fails.  A
    criterion whose fits, residuals or penalty leave the float range is
    inf, without a warning (it never wins, as NaN would not).
    """
    series = np.asarray(series, dtype=float)
    h, K = _count("h", h, 1), _count("K", K, 1)
    _require_finite(series)
    R, n = series.shape
    if n < 2 * K:
        raise SingularDesign(
            "sample end %d leaves fewer than %d regressor rows" % (n, K))
    size = max(1, SUM_BUFFER_BYTES // (8 * K * K * (K + 1)))
    if R > size:
        chunks = [_criteria(series[r:r + size], h, K, penalties)
                  for r in range(0, R, size)]
        return [sum(per_series, []) for per_series in zip(*chunks)]
    with np.errstate(over="ignore", invalid="ignore"):
        series, e = _normalized(series)
        lags = _lag_view(series, K)
        coeffs = _one_step_fits(series, lags, K)
        # [stage, order, series] residual mean squares and trace
        # penalties: the first stage, then the direct and the plug-in
        # h-step ones, which at h = 1 are the first stage's (every h-step
        # fit is the one-step fit).
        resid_ms = _residual_sums(lags, series, coeffs, 1)[None] / (n - 1 - K)
        trace = np.broadcast_to(np.arange(1.0, K + 1)[:, None], (3, K, R))
        if h > 1:
            fits, traces = _h_step_fits(series, lags, h, K, coeffs)
            h_step = _residual_sums(lags, series, np.concatenate(fits, axis=1),
                                    h).reshape(2, K, R) / (n - K - h)
            resid_ms = np.concatenate((resid_ms, h_step))
            trace = np.concatenate((trace[:1], np.swapaxes(traces, 1, 2)))
        sigma_tilde = resid_ms[0, -1]
        scales = (2 * e).tolist()
        out = []
        for penalty in penalties:
            values = resid_ms + trace * sigma_tilde * penalty.value(n)
            values[~np.isfinite(values)] = math.inf
            out.append([(*(dict(enumerate(row, 1)) for row in rows), scale)
                        for rows, scale in zip(
                            values.transpose(2, 0, 1).tolist(), scales)])
    return out


def _one_step_fits(series, lags, K):
    """One-step coefficients of every order, rows j = k..n-1, for a stack
    of series, zero-padded to K and indexed [series, order - 1].  Order
    K's gate fails first, then the residual window, then the smallest
    order whose gate fails."""
    n = series.shape[1]
    inside = np.arange(K) < np.arange(1, K + 1)[:, None]
    grams = _padded_grams(_suffix_sums(lags, lags, n - 1, K), inside)
    singular = 1 + np.flatnonzero(_singular_orders(grams).any(axis=0))
    if K not in singular:
        _check_residual_window(K, n - 1)
    if singular.size:
        raise SingularDesign("singular Gram, one-step rows j=%d..%d"
                             % (K if K in singular else singular[0], n - 1))
    cross = _suffix_sums(lags, series[:, 1:, None], n - 1, K)
    return np.linalg.solve(grams, cross * inside[..., None])[..., 0]


def _h_step_fits(series, lags, h, K, coeffs):
    """The h-step fits, h > 1, of every order, zero-padded to K, and
    their trace penalties, as (direct, plug-in) pairs of arrays indexed
    [series, order - 1]: one gated LU solve of each order's direct-window
    Gram W serves every series and both methods.  coeffs holds the
    one-step fits (_one_step_fits)."""
    n = series.shape[1]
    bhat = impulse_response(coeffs[:, -1], h - 1)
    inside = np.arange(K) < np.arange(1, K + 1)[:, None]
    W = _padded_grams(_suffix_sums(lags, lags, n - h, K), inside)
    bad = 1 + np.flatnonzero(_singular_orders(W).any(axis=0))
    first_bad = int(bad[0]) if bad.size else 0
    # Errors as if raised candidate by candidate: per ascending order,
    # the direct and weighted-average rows, the residual window (the
    # same for every order, so checked at order 1), then the gate of W.
    for k in range(1, K + 1):
        if n - h < 2 * k - 1:
            raise SingularDesign(
                "sample end %d leaves fewer than %d direct rows at h=%d"
                % (n, k, h))
        if n - 2 * h + 1 < k:
            raise WindowTooShort("weighted-average rows j=%d..%d are empty"
                                 % (k, n - 2 * h + 1))
        if k == 1:
            _check_residual_window(K, n - h)
        if k == first_bad:
            raise SingularDesign("singular Gram, direct rows j=%d..%d, h=%d"
                                 % (k, n - h, h))
    block = inside[:, :, None] & inside[:, None, :]
    cross = _suffix_sums(lags, series[:, h:, None], n - h, K)
    solved = np.linalg.solve(W, np.concatenate(
        (cross * inside[..., None], np.broadcast_to(np.eye(K), W.shape)),
        axis=-1))
    inverse = solved[..., 1:]
    # z_t = sum_{i<h} bhat_i x_{t+i}: the h-step moving combination whose
    # lag vectors drive the direct penalty.
    z_lags = _lag_view(sum(bhat[:, i, None] * series[:, i:n - h + 1 + i]
                           for i in range(h)), K)
    zz = _suffix_sums(z_lags, z_lags, n - 2 * h + 1, K)
    L = _power_sum(companion_matrix(coeffs), bhat[:, None]) * block
    fits = solved[..., 0], _companion_image(coeffs, h)
    traces = (np.sum(inverse * zz * block, axis=(-2, -1)),
              np.sum((W @ L) * (inverse @ L.swapaxes(-1, -2)).swapaxes(-1, -2),
                     axis=(-2, -1)))
    return fits, traces


def plugin_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the plug-in candidate of order k.

    Residual mean square of the h-step plug-in fit plus a trace penalty
    tr(W L W^{-1} L') * sigma~^2 * C_n, where W is the direct-window
    Gram, L the fitted analog of the plug-in cost matrix built from the
    order-K MA weights, and sigma~^2 the order-K one-step residual mean
    square.  A read of select_by_criterion's pass over every candidate:
    its value is that call's criteria[k, PLUG_IN], at that call's cost,
    and it raises wherever that call raises, but for NonFiniteCriterion
    (it makes no picks, so it returns its value, inf included).
    """
    k = _candidate_order(k, K)
    _, _, plug, scale = _criteria(_stack(series), h, K, (penalty,))[0][0]
    return float(_unscaled(plug[k], scale))


def direct_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the direct candidate of order k.

    Residual mean square of the direct h-step fit plus the trace penalty
    tr(W^{-1} sum_j z_j(k) z_j(k)') * sigma~^2 * C_n, where z is the
    MA-weighted h-step combination of the series (note its shorter
    window, j = k..n-2h+1).  A read of select_by_criterion's pass, as
    plugin_criterion is: its value is that call's criteria[k, DIRECT].
    """
    k = _candidate_order(k, K)
    _, direct, _, scale = _criteria(_stack(series), h, K, (penalty,))[0][0]
    return float(_unscaled(direct[k], scale))


def select_by_criterion(series, h, K, penalty=DEFAULT_PENALTY):
    """Order-and-method selection by the penalized criteria.

    Same three-step shape as select_by_ape: the one-step direct
    criterion bounds the plug-in search from below, the h-step criteria
    are minimized (smallest order on ties), and the plug-in candidate is
    kept only when strictly better (equality selects direct).  Criterion
    values for every candidate are recorded in the outcome.
    """
    return _outcome(*_criteria(_stack(series), h, K, (penalty,))[0][0])


def _stack(series):
    """One series as a stack of one."""
    return _as_series(series)[None]

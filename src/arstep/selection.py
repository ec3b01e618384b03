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
from .estimation import (_SquareSums, _gated_solve, _lag_view, _normalized,
                         _require_finite, _residuals, _singular_prefix,
                         _unscaled, lag_matrix)
from .model_core import (DIRECT, PLUG_IN, _as_series, _companion_image,
                         _power_sum, companion_matrix, impulse_response)


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
    series = _as_series(series)
    if K < 1 or h < 1:
        raise ValueError("K and h must be at least 1")
    _require_finite(series)
    shared = _shared_prefix(_normalized(series)[0], K)
    return _start_index(series.size, K, h, _order_prefix(shared, K)[2])


def _shared_prefix(series, K):
    """Rows x_j(K), j = K..K+n-2, of the series with K - 1 zeros appended,
    and their Gram prefix: entry r is the Gram over rows j = K..K+r.

    Every order k <= K reads its own rows and Gram prefix from the last
    k columns (_order_prefix): the same products, summed in the same
    order, as a prefix built for order k alone.
    """
    padded = np.concatenate((series, np.zeros(K - 1)))
    rows = lag_matrix(padded, K, K, padded.size - 1)
    grams = rows[:, :, None] * rows[:, None, :]
    np.cumsum(grams, axis=0, out=grams)  # in place: one Gram-sized array
    return rows, grams


def _order_prefix(shared, k):
    """Order k's rows x_j(k), j = k..n-1, and Gram prefix (entry i - 1 - k
    is the Gram over rows j = k..i-1), as views of the shared prefix, and
    the prefix's gate mask, True where an entry fails the condition gate
    (_singular_prefix)."""
    rows, grams = shared
    c = rows.shape[1] - k
    count = rows.shape[0] + 1 - k  # n - k
    grams = grams[:count, c:, c:]
    return rows[:count, c:], grams, _singular_prefix(grams)


def _start_index(n, K, h, bad):
    """min_start_index of a series of length n, read from the gate mask
    bad of its order-K Gram prefix."""
    first = 2 * K + h - 1
    if n - h < first:
        raise SeriesTooShort(
            "need at least %d observations for K=%d, h=%d (have %d)"
            % (first + h, K, h, n))
    ends = np.arange(first, n - h + 1)
    clear = ~(bad[ends - 1 - K] | bad[ends - h - K])
    if not clear.any():
        raise SeriesTooShort(
            "no sample end up to %d yields invertible order-%d designs"
            % (n - h, K))
    return int(ends[np.argmax(clear)])


def _ape_sums(series, prefix, stages, sums):
    """Accumulated prediction errors of one order k for several stages.

    prefix is _order_prefix(shared, k).  Each stage (method, h, m) asks
    for the h-step sum of that method over the sample ends i = m..n-h;
    its prediction errors are queued on the _SquareSums sums, one row per
    stage, in stage order, and the index of the first one is returned.
    Every Gram those refits need is an entry of the prefix: the one-step
    fit behind plug-in at sample end i reads entry i-1-k, the direct
    h-step fit entry i-h-k (so direct at h = 1 is the one-step fit).
    The first stage's entries, its window, must hold every later
    stage's (in select_by_ape the one-step window holds the direct one).
    The stages use at most two fit lags, 1 and H, so one gated solve over
    that window serves them all: column 0 of its right-hand side holds
    the one-step cross-products, column 1 the lag-H ones (the one-step
    ones again when H = 1).  A column's solution does not depend on the
    other column, so a stage gets the same coefficients whatever stages
    share the solve.  A singular entry raises SingularDesign naming the
    first stage's sample end that reads it.
    """
    n = series.size
    rows, grams, bad = prefix
    k = rows.shape[1]
    lags = [1 if method == PLUG_IN else h for method, h, _ in stages]
    m = stages[0][2]
    lo, hi = m - lags[0] - k, n - stages[0][1] - lags[0] - k + 1
    H = max(lags)
    cross = np.zeros((hi, k, 2))
    np.multiply(rows[:hi], series[k:k + hi, None], out=cross[:, :, 0])
    stop = min(hi, n - H - k + 1)
    np.multiply(rows[:stop], series[k + H - 1:k + H - 1 + stop, None],
                out=cross[:stop, :, 1])
    np.cumsum(cross, axis=0, out=cross)
    coeffs = _gated_solve(grams[lo:hi], cross[lo:], lambda j: (
        "singular design at sample end i=%d" % (m + j)), bad[lo:hi])
    queued = []
    for (method, h, m), lag in zip(stages, lags):
        first = m - lag - k - lo
        fits = coeffs[first:first + n - h - m + 1, :, 0 if lag == 1 else 1]
        if method == PLUG_IN:
            fits = _companion_image(fits, h)
        tails = rows[np.arange(m, n - h + 1) - k]
        queued.append(sums.add(series[None, m + h - 1:n]
                               - np.einsum("bk,bk->b", fits, tails)))
    return queued[0]


def accumulated_prediction_error(series, k, h, method, K, start_index=None):
    """Accumulated squared out-of-sample h-step prediction errors.

    For each sample end i from the start index through n - h, the
    candidate (k, method) is refitted on x_1..x_i (a Gram prefix entry
    plus a fresh solve per step), x_{i+h} is forecast, and the squared
    errors are summed exactly and rounded once (estimation.row_sums).
    The window only ever expands.

    Parameters
    ----------
    series : array of float
    k : int
        Candidate order, 1 <= k <= K.
    h : int
        Horizon.
    method : {"plug-in", "direct"}
    K : int
        Largest candidate order (fixes the start index).
    start_index : int, optional
        Precomputed value of min_start_index(series, K, h); computed
        when omitted.

    Returns
    -------
    float
    """
    series = _as_series(series)
    _require_finite(series)
    n = series.size
    if not 1 <= k <= K:
        raise ValueError("candidate order must satisfy 1 <= k <= K")
    if method not in (PLUG_IN, DIRECT):
        raise ValueError("method must be %r or %r" % (PLUG_IN, DIRECT))
    if h < 1:
        raise ValueError("h must be at least 1")
    series, e = _normalized(series)
    if start_index is None:  # min_start_index; its prefix serves every k
        shared = _shared_prefix(series, K)
        prefix = _order_prefix(shared, K)
        m = _start_index(n, K, h, prefix[2])
    else:
        shared, prefix, m = None, None, int(start_index)
    if n - h < m:
        raise SeriesTooShort("no forecast origins between i=%d and n-h=%d"
                             % (m, n - h))
    if m - (1 if method == PLUG_IN else h) < k:
        raise SingularDesign("sample end i=%d leaves no regressor rows" % m)
    if prefix is None or k < K:
        prefix = _order_prefix(shared or _shared_prefix(series, k), k)
    sums = _SquareSums(n - h - m + 1, 1)
    _ape_sums(series, prefix, ((method, h, m),), sums)
    return float(_unscaled(sums.totals()[0], 2 * e))


def select_by_ape(series, h, K):
    """Order-and-method selection by accumulated prediction error.

    Step 1 picks the one-step direct minimizer; step 2 minimizes the
    h-step direct sums over all orders and the h-step plug-in sums over
    orders no smaller than the step-1 pick; step 3 keeps the plug-in
    candidate only when it beats the direct one strictly (ties go to
    direct).  Argmin ties inside each step take the smallest order.
    """
    series = _as_series(series)
    if h < 1 or K < 1:
        raise ValueError("h and K must be at least 1")
    _require_finite(series)
    series, e = _normalized(series)
    shared = _shared_prefix(series, K)
    top = _order_prefix(shared, K)
    m1 = _start_index(series.size, K, 1, top[2])
    mh = _start_index(series.size, K, h, top[2])
    # One pass per order serves all three stages.  Plug-in sums are
    # taken for every order because the step-1 pick is not known yet.
    # The first stage's window holds the other two (mh >= m1, and
    # mh - h >= m1 - 1 since sample end mh - h + 1 >= 2K clears the
    # one-step gate), and its error rows are the longest and fix the
    # sum buffer's width.
    # Order K's pass runs first, so that a series singular at several
    # orders fails on order K's sample end.
    stages = ((DIRECT, 1, m1), (DIRECT, h, mh), (PLUG_IN, h, mh))
    sums = _SquareSums(series.size - m1, 3 * K)
    at = {k: _ape_sums(series, top if k == K else _order_prefix(shared, k),
                       stages, sums)
          for k in (K, *range(1, K))}
    totals = sums.totals().tolist()
    first_stage, direct_vals, plug_all = (
        {k: totals[at[k] + stage] for k in range(1, K + 1)}
        for stage in range(3))
    k_first = _argmin_smallest(first_stage, "first-stage")
    return _outcome(first_stage, direct_vals,
                    {k: v for k, v in plug_all.items() if k >= k_first},
                    2 * int(e), mh)


def _criteria(series, h, K, penalties, orders, methods):
    """Criteria of orders for a stack of series, one series per row.

    Returns, per penalty and then per series, (first_stage, direct,
    plug_in, scale): {k: value} dicts of the series normalized by
    _normalized, and the exponent that reports them at its own scale
    (_outcome's arguments).  methods names the h-step criteria wanted,
    DIRECT and/or PLUG_IN; the first stage is the direct criterion at
    h = 1.  Every order is taken once for the whole stack: one gated LU
    solve on its one-step Grams (rows j = k..n-1) and, at h > 1, one on
    its direct-window Grams W (rows j = k..n-h) with right-hand side
    [X'y | Z'Z | L'], the columns its methods need.  The first-stage
    penalty tr(G^-1 G) is k; so is the plug-in one at h = 1 (L = I),
    where every h-step fit is the one-step fit.  Each residual sum is
    math.fsum's (one _SquareSums buffer).  Order K's one-step fit fixes
    sigma~^2 and b^ of each series.  Errors come candidate by candidate:
    the one-step fits, then per order its window lengths before the gate
    of W; a Gram of any series that fails the gate fails the whole stack.
    """
    series = np.asarray(series, dtype=float)
    if h < 1 or K < 1 or not all(1 <= k <= K for k in orders):
        raise ValueError("need h, K >= 1 and candidate orders 1 <= k <= K")
    _require_finite(series)
    R, n = series.shape
    if n < 2 * K:
        raise SingularDesign(
            "sample end %d leaves fewer than %d regressor rows" % (n, K))
    series, e = _normalized(series)
    lags = _lag_view(series, K)
    fitted = orders if h == 1 or PLUG_IN in methods else ()
    fitted = tuple(dict.fromkeys((K,) + tuple(fitted)))
    sums = _SquareSums(n - K, R * (len(fitted) + len(orders) * len(methods)))
    one_step = {}
    for k in fitted:
        X = lags[:, k - 1:n - 1, :k]
        Xt = X.swapaxes(1, 2)
        coeffs = _gated_solve(Xt @ X, Xt @ series[:, k:n, None],
                              lambda _: "singular Gram, one-step rows "
                              "j=%d..%d" % (k, n - 1))[..., 0]
        one_step[k] = (coeffs,
                       sums.add(_residuals(lags, series, coeffs, 1, K, n)))
    # One entry per criterion: (stage, k, index of its first residual
    # sum, the horizon of those residuals, trace penalty per series).
    entries = [(0, k, one_step[k][1], 1, np.full(R, float(k)))
               for k in orders if k in one_step]
    bhat = impulse_response(one_step[K][0], h - 1)
    z_lags = None
    for k in orders if h > 1 else ():
        if DIRECT in methods and n - h < 2 * k - 1:
            raise SingularDesign(
                "sample end %d leaves fewer than %d direct rows at h=%d"
                % (n, k, h))
        X = lags[:, k - 1:n - h, :k]
        Xt = X.swapaxes(1, 2)
        rhs = []
        if DIRECT in methods:
            if n - 2 * h + 1 < k:
                raise WindowTooShort("weighted-average rows j=%d..%d are "
                                     "empty" % (k, n - 2 * h + 1))
            if z_lags is None:
                # z_t = sum_{i<h} bhat_i x_{t+i}: the h-step moving
                # combination whose lag vectors drive the direct penalty.
                z_lags = _lag_view(sum(bhat[:, i, None]
                                       * series[:, i:n - h + 1 + i]
                                       for i in range(h)), K)
            Z = z_lags[:, k - 1:n - 2 * h + 1, :k]
            rhs += [Xt @ series[:, k + h - 1:n, None], Z.swapaxes(1, 2) @ Z]
        if PLUG_IN in methods:
            coeffs = one_step[k][0]
            plug_at = sums.add(_residuals(
                lags, series, _companion_image(coeffs, h), h, K, n))
            L = _power_sum(companion_matrix(coeffs), bhat)
            rhs.append(L.swapaxes(1, 2))
        W = Xt @ X
        solved = _gated_solve(W, np.concatenate(rhs, axis=2),
                              lambda _: "singular Gram, direct rows "
                              "j=%d..%d, h=%d" % (k, n - h, h))
        if DIRECT in methods:
            at = sums.add(_residuals(lags, series, solved[..., 0], h, K, n))
            entries.append((1, k, at, h, np.trace(solved[..., 1:k + 1],
                                                  axis1=1, axis2=2)))
        if PLUG_IN in methods:
            entries.append((2, k, plug_at, h, np.sum(
                (W @ L) * solved[..., -k:].swapaxes(1, 2), axis=(1, 2))))
    stage, ks, at, lag, trace = zip(*entries)
    totals = sums.totals()
    resid_ms = totals[np.add.outer(at, np.arange(R))] \
        / (n - K - np.array(lag))[:, None]
    sigma_tilde = totals[one_step[K][1]:one_step[K][1] + R] / (n - 1 - K)
    trace = np.array(trace)
    scales = (2 * e).tolist()
    out = []
    for penalty in penalties:
        values = (resid_ms + trace * sigma_tilde * penalty.value(n)).T
        per_series = []
        for row, scale in zip(values.tolist(), scales):
            stages = {}, {}, {}
            for s, k, v in zip(stage, ks, row):
                stages[s][k] = v
            if h == 1:  # every h-step fit is the one-step fit
                stages = stages[0], dict(stages[0]), dict(stages[0])
            per_series.append((*stages, scale))
        out.append(per_series)
    return out


def plugin_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the plug-in candidate of order k.

    Residual mean square of the h-step plug-in fit plus a trace penalty
    tr(W L W^{-1} L') * sigma~^2 * C_n, where W is the direct-window
    Gram, L the fitted analog of the plug-in cost matrix built from the
    order-K MA weights, and sigma~^2 the order-K one-step residual mean
    square.
    """
    _, _, plug, scale = _criteria(_stack(series), h, K, (penalty,), (k,),
                                  (PLUG_IN,))[0][0]
    return float(_unscaled(plug[k], scale))


def direct_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the direct candidate of order k.

    Residual mean square of the direct h-step fit plus the trace penalty
    tr(W^{-1} sum_j z_j(k) z_j(k)') * sigma~^2 * C_n, where z is the
    MA-weighted h-step combination of the series (note its shorter
    window, j = k..n-2h+1).
    """
    _, direct, _, scale = _criteria(_stack(series), h, K, (penalty,), (k,),
                                    (DIRECT,))[0][0]
    return float(_unscaled(direct[k], scale))


def select_by_criterion(series, h, K, penalty=DEFAULT_PENALTY):
    """Order-and-method selection by the penalized criteria.

    Same three-step shape as select_by_ape: the one-step direct
    criterion bounds the plug-in search from below, the h-step criteria
    are minimized (smallest order on ties), and the plug-in candidate is
    kept only when strictly better (equality selects direct).  Criterion
    values for every candidate are recorded in the outcome.
    """
    return _outcome(*_criteria(_stack(series), h, K, (penalty,),
                               range(1, K + 1), (DIRECT, PLUG_IN))[0][0])


def _stack(series):
    """One series as a stack of one."""
    return _as_series(series)[None]

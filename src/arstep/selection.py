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
from .estimation import (_SquareSums, _eig_solve, _gated_solve, _lag_view,
                         _normal_fit, _plug_in_powers, _require_finite,
                         _residuals, _singular_prefix, gram_is_invertible,
                         lag_matrix)
from .model_core import (DIRECT, PLUG_IN, _power_sum, companion_matrix,
                         impulse_response)


@dataclass(frozen=True)
class PenaltyWeight:
    """Penalty factor C_n = multiplier * log(n) / n.

    The form guarantees C_n -> 0 while n * C_n / log(n) stays bounded
    below, which is what the consistency arguments for the penalized
    criteria need.  Presets A, B, C use multipliers 1, 2, 3.
    """

    multiplier: float

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


def _outcome(first_stage, direct_vals, plug_vals, m_h):
    """Steps 2 and 3 of both procedures and their outcome.  plug_vals
    holds the plug-in candidates to record; the search takes those no
    smaller than the first-stage pick."""
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
    series = np.asarray(series, dtype=float)
    if K < 1 or h < 1:
        raise ValueError("K and h must be at least 1")
    return _start_index(series, K, h, _gram_prefix(series, K)[1])


def _gram_prefix(series, k):
    """Rows x_j(k), j = k..n-1, and their Gram prefix: entry i - 1 - k
    is the Gram over rows j = k..i-1."""
    rows = lag_matrix(series, k, k, series.size - 1)
    return rows, np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)


def _start_index(series, K, h, grams):
    """min_start_index, read from the order-K Gram prefix grams."""
    n = series.size
    first = 2 * K + h - 1
    if n - h < first:
        raise SeriesTooShort(
            "need at least %d observations for K=%d, h=%d (have %d)"
            % (first + h, K, h, n))
    for i in range(first, n - h + 1):
        if gram_is_invertible(grams[i - 1 - K]) \
                and gram_is_invertible(grams[i - h - K]):
            return i
    raise SeriesTooShort(
        "no sample end up to %d yields invertible order-%d designs"
        % (n - h, K))


def _ape_sums(series, k, stages, sums):
    """Accumulated prediction errors of one order k for several stages.

    Each stage (method, h, m) asks for the h-step sum of that method over
    the sample ends i = m..n-h; its prediction errors are queued on the
    _SquareSums sums, one row per stage, in stage order.  Every Gram
    those refits need is an entry of one prefix over the rows x_j(k),
    j = k..n-1: the one-step fit behind plug-in at sample end i reads
    entry i-1-k, the direct h-step fit entry i-h-k (so direct at h = 1
    is the one-step fit).  The prefix
    is built once and gated once, from the smallest entry any stage
    reads, by _singular_prefix (eigvalsh on a few anchors and on the
    entries they do not certify).  Each fit lag is solved
    once, over the sample ends of its first stage; a later stage with the
    same lag must lie inside them and takes a slice.
    """
    n = series.size
    rows, grams = _gram_prefix(series, k)
    stages = [(method, h, m, 1 if method == PLUG_IN else h)
              for method, h, m in stages]
    base = min(m - lag for _, _, m, lag in stages) - k
    bad = _singular_prefix(grams[base:])
    solved = {}
    for method, h, m, lag in stages:
        if lag not in solved:
            g = slice(m - lag - k, n - h - lag - k + 1)
            cross = np.cumsum(rows[:n - lag - k + 1]
                              * series[k + lag - 1:n, None], axis=0)
            solved[lag] = m, _gated_solve(
                grams[g], cross[g],
                lambda j: "singular design at sample end i=%d" % (m + j),
                bad[g.start - base:g.stop - base])
        first, coeffs = solved[lag]
        coeffs = coeffs[m - first:n - h - first + 1]
        if method == PLUG_IN:
            coeffs = _plug_in_powers(coeffs, h)
        tails = rows[np.arange(m, n - h + 1) - k]
        sums.add(series[None, m + h - 1:n]
                 - np.einsum("bk,bk->b", coeffs, tails))


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
    series = np.asarray(series, dtype=float)
    _require_finite(series)
    n = series.size
    if not 1 <= k <= K:
        raise ValueError("candidate order must satisfy 1 <= k <= K")
    if method not in (PLUG_IN, DIRECT):
        raise ValueError("method must be %r or %r" % (PLUG_IN, DIRECT))
    m = min_start_index(series, K, h) if start_index is None else int(start_index)
    if n - h < m:
        raise SeriesTooShort("no forecast origins between i=%d and n-h=%d"
                             % (m, n - h))
    if m - (1 if method == PLUG_IN else h) < k:
        raise SingularDesign("sample end i=%d leaves no regressor rows" % m)
    sums = _SquareSums(n - h - m + 1, 1)
    _ape_sums(series, k, ((method, h, m),), sums)
    return float(sums.totals()[0])


def select_by_ape(series, h, K):
    """Order-and-method selection by accumulated prediction error.

    Step 1 picks the one-step direct minimizer; step 2 minimizes the
    h-step direct sums over all orders and the h-step plug-in sums over
    orders no smaller than the step-1 pick; step 3 keeps the plug-in
    candidate only when it beats the direct one strictly (ties go to
    direct).  Argmin ties inside each step take the smallest order.
    """
    series = np.asarray(series, dtype=float)
    if h < 1 or K < 1:
        raise ValueError("h and K must be at least 1")
    _require_finite(series)
    # Both start indices read one order-K prefix, dropped before the
    # passes below so that it does not add to their peak memory.
    grams = _gram_prefix(series, K)[1]
    m1 = _start_index(series, K, 1, grams)
    mh = m1 if h == 1 else _start_index(series, K, h, grams)
    del grams
    # One pass per order serves all three stages.  Plug-in sums are
    # taken for every order because the step-1 pick is not known yet;
    # their one-step fits are a slice of the first stage's (mh >= m1),
    # whose error rows are the longest and fix the sum buffer's width.
    stages = ((DIRECT, 1, m1), (DIRECT, h, mh), (PLUG_IN, h, mh))
    sums = _SquareSums(series.size - m1, 3 * K)
    for k in range(1, K + 1):
        _ape_sums(series, k, stages, sums)
    first_stage, direct_vals, plug_all = (
        dict(enumerate(values, start=1))
        for values in sums.totals().reshape(K, 3).T.tolist())
    k_first = _argmin_smallest(first_stage, "first-stage")
    return _outcome(first_stage, direct_vals,
                    {k: v for k, v in plug_all.items() if k >= k_first}, mh)


def _criteria(series, h, K, penalties, orders, methods):
    """Criteria of orders for a stack of series, one series per row.

    Returns, per penalty and then per series, the triple (first_stage,
    direct, plug_in), each {k: value}.  methods names the h-step
    criteria wanted, DIRECT and/or PLUG_IN; the first stage is the direct
    criterion at h = 1.  Every order is taken once for the whole stack:
    its one-step Grams (rows j = k..n-1) and W (rows j = k..n-h; the same
    matrices at h = 1) are sliced from one zero-padded order-K lag view
    per series and gated by one batched eigh, and every solve on them
    reuses that eigendecomposition.  The squared residuals of all fits go
    through one _SquareSums buffer, so each residual sum is math.fsum's.
    Order K's one-step fit fixes sigma~^2 and b^ of each series.  Errors
    come in candidate-by-candidate order (the one-step fits, then per
    order direct before plug-in), and a Gram of any series that fails
    the gate fails the whole stack.
    """
    series = np.asarray(series, dtype=float)
    if h < 1 or K < 1 or not all(1 <= k <= K for k in orders):
        raise ValueError("need h, K >= 1 and candidate orders 1 <= k <= K")
    _require_finite(series)
    R, n = series.shape
    if n < 2 * K:
        raise SingularDesign(
            "sample end %d leaves fewer than %d regressor rows" % (n, K))
    lags = _lag_view(series, K)
    fitted = orders if h == 1 or PLUG_IN in methods else ()
    fitted = tuple(dict.fromkeys((K,) + tuple(fitted)))
    sums = _SquareSums(n - K, R * (len(fitted) + len(orders) * len(methods)))
    one_step = {}
    for k in fitted:
        gram, eig, coeffs = _normal_fit(lags[:, k - 1:n - 1, :k],
                                        series[:, k:n],
                                        "one-step rows j=%d..%d" % (k, n - 1))
        one_step[k] = (gram, eig, coeffs,
                       sums.add(_residuals(lags, series, coeffs, 1, K, n)))
    bhat = impulse_response(one_step[K][2], h - 1)
    # One entry per criterion: (stage, k, index of its first residual
    # sum, the horizon of those residuals, trace penalty per series).
    entries = []
    z_lags = None
    for k in orders:
        window = one_step[k][:2] if h == 1 else None  # W, its eigh
        if k in one_step:
            # At h = 1 the weighted lag vectors are the regressor rows,
            # so the penalty matrix is the one-step Gram itself.
            gram, eig, _, at = one_step[k]
            entries.append((0, k, at, 1, _trace(_eig_solve(eig, gram))))
        if h > 1 and DIRECT in methods:
            if n - h < 2 * k - 1:
                raise SingularDesign(
                    "sample end %d leaves fewer than %d direct rows at h=%d"
                    % (n, k, h))
            gram, eig, coeffs = _normal_fit(
                lags[:, k - 1:n - h, :k], series[:, k + h - 1:n],
                "direct rows j=%d..%d, h=%d" % (k, n - h, h))
            window = gram, eig
            at = sums.add(_residuals(lags, series, coeffs, h, K, n))
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
            entries.append((1, k, at, h, _trace(_eig_solve(
                eig, Z.swapaxes(1, 2) @ Z))))
        if PLUG_IN in methods:
            coeffs = one_step[k][2]
            at = sums.add(_residuals(lags, series,
                                     _plug_in_powers(coeffs, h), h, K, n))
            gram, eig = window or _normal_fit(
                lags[:, k - 1:n - h, :k], series[:, k + h - 1:n],
                "plug-in rows j=%d..%d" % (k, n - h))[:2]
            L = _power_sum(companion_matrix(coeffs), bhat)
            entries.append((2, k, at, h, np.sum(
                (gram @ L) * _eig_solve(eig, L.swapaxes(1, 2)).swapaxes(1, 2),
                axis=(1, 2))))
    stage, ks, at, lag, trace = zip(*entries)
    totals = sums.totals()
    resid_ms = totals[np.add.outer(at, np.arange(R))] \
        / (n - K - np.array(lag))[:, None]
    sigma_tilde = totals[one_step[K][3]:one_step[K][3] + R] / (n - 1 - K)
    trace = np.array(trace)
    out = []
    for penalty in penalties:
        values = (resid_ms + trace * sigma_tilde * penalty.value(n)).T
        per_series = []
        for row in values.tolist():
            stages = {}, {}, {}
            for s, k, v in zip(stage, ks, row):
                stages[s][k] = v
            if h == 1:
                stages = stages[0], dict(stages[0]), stages[2]
            per_series.append(stages)
        out.append(per_series)
    return out


def _trace(a):
    """Trace of each matrix of a stack.  np.trace, not an einsum: the two
    can round the diagonal sum differently, and criteria are meant to
    stay bit-identical from release to release."""
    return np.trace(a, axis1=-2, axis2=-1)


def plugin_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the plug-in candidate of order k.

    Residual mean square of the h-step plug-in fit plus a trace penalty
    tr(W L W^{-1} L') * sigma~^2 * C_n, where W is the direct-window
    Gram, L the fitted analog of the plug-in cost matrix built from the
    order-K MA weights, and sigma~^2 the order-K one-step residual mean
    square.
    """
    return _criteria(_stack(series), h, K, (penalty,), (k,),
                     (PLUG_IN,))[0][0][2][k]


def direct_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the direct candidate of order k.

    Residual mean square of the direct h-step fit plus the trace penalty
    tr(W^{-1} sum_j z_j(k) z_j(k)') * sigma~^2 * C_n, where z is the
    MA-weighted h-step combination of the series (note its shorter
    window, j = k..n-2h+1).
    """
    return _criteria(_stack(series), h, K, (penalty,), (k,),
                     (DIRECT,))[0][0][1][k]


def select_by_criterion(series, h, K, penalty=DEFAULT_PENALTY):
    """Order-and-method selection by the penalized criteria.

    Same three-step shape as select_by_ape: the one-step direct
    criterion bounds the plug-in search from below, the h-step criteria
    are minimized (smallest order on ties), and the plug-in candidate is
    kept only when strictly better (equality selects direct).  Criterion
    values for every candidate are recorded in the outcome.
    """
    return _outcome(*_criteria(_stack(series), h, K, (penalty,),
                               range(1, K + 1), (DIRECT, PLUG_IN))[0][0],
                    None)


def _stack(series):
    """One series as a stack of one."""
    return np.asarray(series, dtype=float)[None]

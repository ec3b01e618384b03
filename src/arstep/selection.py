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

from .errors import (NonFiniteSeries, SeriesTooShort, SingularDesign,
                     WindowTooShort)
from .estimation import (_gated_solve, _plug_in_powers, _singular_grams,
                         fit_direct, fit_one_step, fitted_ma_weights,
                         gram_is_invertible, lag_matrix, plug_in_multi,
                         residual_mse, solve_gram)
from .model_core import DIRECT, PLUG_IN, companion_matrix


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


def _argmin_smallest(values):
    """Key of the smallest value; ties go to the smallest key."""
    best_k, best_v = None, math.inf
    for k in sorted(values):
        if values[k] < best_v:
            best_k, best_v = k, values[k]
    return best_k


def min_start_index(series, K, h):
    """Smallest usable start index for the sequential prediction sums.

    Returns the smallest i >= 2K + h - 1 such that both the one-step
    Gram (rows j = K..i-1) and the direct Gram (rows j = K..i-h) at
    order K clear the invertibility gate.  Transient singular stretches
    are skipped rather than fatal; if no i up to n - h works, the series
    is too short (or too degenerate) to select on.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if K < 1 or h < 1:
        raise ValueError("K and h must be at least 1")
    first = 2 * K + h - 1
    if n - h < first:
        raise SeriesTooShort(
            "need at least %d observations for K=%d, h=%d (have %d)"
            % (first + h, K, h, n))
    rows = lag_matrix(series, K, K, n - 1)
    grams = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    for i in range(first, n - h + 1):
        if gram_is_invertible(grams[i - 1 - K]) \
                and gram_is_invertible(grams[i - h - K]):
            return i
    raise SeriesTooShort(
        "no sample end up to %d yields invertible order-%d designs"
        % (n - h, K))


def _require_finite(series):
    """Reject NaN and infinite values before any Gram is formed."""
    if not np.isfinite(series).all():
        raise NonFiniteSeries("the series holds NaN or infinite values")


def _ape_sums(series, k, stages):
    """Accumulated prediction errors of one order k for several stages.

    Each stage (method, h, m) asks for the h-step sum of that method over
    the sample ends i = m..n-h.  Every Gram those refits need is an entry
    of one prefix over the rows x_j(k), j = k..n-1: the one-step fit
    behind plug-in at sample end i reads entry i-1-k, the direct h-step
    fit entry i-h-k (so direct at h = 1 is the one-step fit).  The prefix
    is built and gated by one eigvalsh sweep.  Each fit lag is solved
    once, over the sample ends of its first stage; a later stage with the
    same lag must lie inside them and takes a slice.
    """
    n = series.size
    rows = lag_matrix(series, k, k, n - 1)
    grams = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    stages = [(method, h, m, 1 if method == PLUG_IN else h)
              for method, h, m in stages]
    base = min(m - lag for _, _, m, lag in stages) - k
    bad = _singular_grams(grams[base:])
    solved, sums = {}, []
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
        errors = series[m + h - 1:n] - np.einsum("bk,bk->b", coeffs, tails)
        sums.append(math.fsum((errors * errors).tolist()))
    return sums


def accumulated_prediction_error(series, k, h, method, K, start_index=None):
    """Accumulated squared out-of-sample h-step prediction errors.

    For each sample end i from the start index through n - h, the
    candidate (k, method) is refitted on x_1..x_i (a Gram prefix entry
    plus a fresh solve per step), x_{i+h} is forecast, and the squared
    errors are summed with compensated summation.  The window only ever
    expands.

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
    return _ape_sums(series, k, ((method, h, m),))[0]


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
    m1 = min_start_index(series, K, 1)
    mh = m1 if h == 1 else min_start_index(series, K, h)
    # One pass per order serves all three stages.  Plug-in sums are
    # taken for every order because the step-1 pick is not known yet;
    # their one-step fits are a slice of the first stage's (mh >= m1).
    stages = ((DIRECT, 1, m1), (DIRECT, h, mh), (PLUG_IN, h, mh))
    first_stage, direct_vals, plug_all = {}, {}, {}
    for k in range(1, K + 1):
        first_stage[k], direct_vals[k], plug_all[k] = _ape_sums(
            series, k, stages)
    k_first = _argmin_smallest(first_stage)
    k_direct = _argmin_smallest(direct_vals)
    plug_vals = {k: v for k, v in plug_all.items() if k >= k_first}
    k_plug = _argmin_smallest(plug_vals)
    if direct_vals[k_direct] > plug_vals[k_plug]:
        chosen, method = k_plug, PLUG_IN
    else:
        chosen, method = k_direct, DIRECT
    criteria = {(k, DIRECT): v for k, v in direct_vals.items()}
    criteria.update({(k, PLUG_IN): v for k, v in plug_vals.items()})
    return SelectionOutcome(k=chosen, method=method, criteria=criteria,
                            m_h=mh, first_stage=first_stage,
                            orders={"first_stage": k_first,
                                    "direct": k_direct,
                                    "plug_in": k_plug})


def _criterion_shared(series, h, K):
    """Order-K pieces shared by every candidate: scale and MA weights."""
    n = int(np.asarray(series).size)
    fit_full = fit_one_step(series, K)
    sigma_tilde = residual_mse(series, fit_full, 1, K)
    bhat = fitted_ma_weights(fit_full, h - 1)
    return n, sigma_tilde, bhat


def _plugin_criterion_value(series, k, h, K, penalty, sigma_tilde, bhat):
    n = np.asarray(series).size
    one = fit_one_step(series, k)
    sig = residual_mse(series, plug_in_multi(one, h), h, K)
    X = lag_matrix(series, k, k, n - h)
    W = X.T @ X
    A = companion_matrix(np.asarray(one.coeffs))
    L = bhat[0] * np.eye(k)
    for j in range(1, h):
        L = L @ A + bhat[j] * np.eye(k)
    right = solve_gram(W, L.T, "plug-in criterion, k=%d" % k)
    trace = float(np.sum((W @ L) * right.T))
    return sig + trace * sigma_tilde * penalty.value(n)


def _direct_criterion_value(series, k, h, K, penalty, sigma_tilde, bhat):
    n = np.asarray(series).size
    fitted = fit_direct(series, k, h)
    sig = residual_mse(series, fitted, h, K)
    if n - 2 * h + 1 < k:
        raise WindowTooShort(
            "weighted-average rows j=%d..%d are empty" % (k, n - 2 * h + 1))
    X = lag_matrix(series, k, k, n - h)
    W = X.T @ X
    # z_t = sum_{i<h} bhat_i x_{t+i}: the h-step moving combination whose
    # lag vectors drive the direct penalty.
    z = np.zeros(n - h + 1)
    for i in range(h):
        z += bhat[i] * np.asarray(series, dtype=float)[i:n - h + 1 + i]
    Z = lag_matrix(z, k, k, n - 2 * h + 1)
    trace = float(np.trace(solve_gram(W, Z.T @ Z,
                                      "direct criterion, k=%d" % k)))
    return sig + trace * sigma_tilde * penalty.value(n)


def plugin_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the plug-in candidate of order k.

    Residual mean square of the h-step plug-in fit plus a trace penalty
    tr(W L W^{-1} L') * sigma~^2 * C_n, where W is the direct-window
    Gram, L the fitted analog of the plug-in cost matrix built from the
    order-K MA weights, and sigma~^2 the order-K one-step residual mean
    square.
    """
    _, sigma_tilde, bhat = _criterion_shared(series, h, K)
    return _plugin_criterion_value(series, k, h, K, penalty, sigma_tilde,
                                   bhat)


def direct_criterion(series, k, h, K, penalty=DEFAULT_PENALTY):
    """Penalized criterion for the direct candidate of order k.

    Residual mean square of the direct h-step fit plus the trace penalty
    tr(W^{-1} sum_j z_j(k) z_j(k)') * sigma~^2 * C_n, where z is the
    MA-weighted h-step combination of the series (note its shorter
    window, j = k..n-2h+1).
    """
    _, sigma_tilde, bhat = _criterion_shared(series, h, K)
    return _direct_criterion_value(series, k, h, K, penalty, sigma_tilde,
                                   bhat)


def select_by_criterion(series, h, K, penalty=DEFAULT_PENALTY):
    """Order-and-method selection by the penalized criteria.

    Same three-step shape as select_by_ape: the one-step direct
    criterion bounds the plug-in search from below, the h-step criteria
    are minimized (smallest order on ties), and the plug-in candidate is
    kept only when strictly better (equality selects direct).  Criterion
    values for every candidate are recorded in the outcome.
    """
    series = np.asarray(series, dtype=float)
    if h < 1 or K < 1:
        raise ValueError("h and K must be at least 1")
    _require_finite(series)
    n, sigma_tilde, bhat = _criterion_shared(series, h, K)
    one_step_weights = np.ones(1)
    first_stage = {
        k: _direct_criterion_value(series, k, 1, K, penalty, sigma_tilde,
                                   one_step_weights)
        for k in range(1, K + 1)}
    k_first = _argmin_smallest(first_stage)
    if h == 1:
        direct_vals = dict(first_stage)
    else:
        direct_vals = {
            k: _direct_criterion_value(series, k, h, K, penalty,
                                       sigma_tilde, bhat)
            for k in range(1, K + 1)}
    k_direct = _argmin_smallest(direct_vals)
    plug_vals = {
        k: _plugin_criterion_value(series, k, h, K, penalty, sigma_tilde,
                                   bhat)
        for k in range(1, K + 1)}
    k_plug = _argmin_smallest({k: v for k, v in plug_vals.items()
                               if k >= k_first})
    if direct_vals[k_direct] > plug_vals[k_plug]:
        chosen, method = k_plug, PLUG_IN
    else:
        chosen, method = k_direct, DIRECT
    criteria = {(k, DIRECT): v for k, v in direct_vals.items()}
    criteria.update({(k, PLUG_IN): v for k, v in plug_vals.items()})
    return SelectionOutcome(k=chosen, method=method, criteria=criteria,
                            m_h=None, first_stage=first_stage,
                            orders={"first_stage": k_first,
                                    "direct": k_direct,
                                    "plug_in": k_plug})

"""Asymptotic risk constants and loss functions for predictor comparison.

For a unit-root AR model, both the plug-in (iterated one-step) predictor
and the direct h-step predictor fitted at working order k carry an
excess mean squared prediction error of order 1/n whose scaled limit
splits into a common nonstationarity term 2*sigma^2*(sum_{j<h} b_j)^2
and a method/order-dependent estimation cost.  This module computes
those costs in trace form, their printed two-step closed forms (kept as
an independent oracle), the resulting loss functions (infinite below the
minimal working order), the set of loss-minimizing (order, method)
combinations, and the analogous quantities for stable models without a
unit root.

All quantities are exact population values: autocovariances come from
truncated MA expansions with geometric tail control, and the limiting
covariance of the direct predictor is evaluated as a finite double sum,
never by simulation.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import cho_factor, cho_solve
from .errors import SingularGamma
from .model_core import (DIRECT, PLUG_IN, StationaryArModel, UnitRootArModel,
                         ar_coefficients, companion_matrix,
                         direct_coefficients, impulse_response,
                         level_ma_weights, unit_root_model, _auto_truncation,
                         _power_sum)

#: Relative slack within which two losses count as tied.
TIE_REL_TOL = 1e-10


def _toeplitz(first):
    """Symmetric Toeplitz matrix with the given first column."""
    n = len(first)
    return first[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]


@dataclass(frozen=True)
class AutocovarianceTable:
    """Autocovariances gamma(0)..gamma(L) of the stationary representation."""

    gamma: np.ndarray
    L: int

    def matrix(self, dim):
        """Toeplitz autocovariance matrix of the given dimension."""
        if dim > self.L + 1:
            raise ValueError("table holds lags up to %d, need %d"
                             % (self.L, dim - 1))
        return _toeplitz(self.gamma[:dim])


def _gamma(model, L):
    """gamma(0)..gamma(L) of the model's stationary representation.

    The truncation length T (one eigvals) and the MA weights
    c_0..c_{T+L} give gamma(m) = sigma^2 * sum_{i<=T} c_i c_{i+m}.  Every
    lag sums the same T + 1 products and no weight depends on L, so
    gamma(m) is the same for every L >= m.
    """
    ar = ar_coefficients(model)[1]
    T = _auto_truncation(ar)
    c = impulse_response(ar, T + L)
    return np.array([model.sigma2 * float(np.dot(c[:T + 1], c[m:m + T + 1]))
                     for m in range(L + 1)])


def autocovariances(model, L):
    """Autocovariances of the model's stationary representation.

    gamma(m) = sigma^2 * sum_{i=0}^{T} c_i c_{i+m}, with c the MA weights
    of the stationary representation (the differenced series for a
    unit-root model, the series itself for a stable one) and T the
    length at which their geometric tail drops below 1e-14.

    Parameters
    ----------
    model : UnitRootArModel or StationaryArModel
    L : int
        Largest lag to tabulate.

    Returns
    -------
    AutocovarianceTable
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    return AutocovarianceTable(gamma=_gamma(model, L), L=int(L))


def _costs(model, dim, gamma, w):
    """(plug-in, direct) estimation costs at one trace dimension.

    gamma holds the autocovariances up to lag h + dim - 2 and w the level
    MA weights w_0..w_{h-1} of the horizon; G is the dim x dim
    autocovariance matrix, factored once for both traces:

    * plug-in: tr(G M G^{-1} M') * sigma^2, M = sum_j w_j S^(h-1-j) with
      S the dim x dim companion matrix of the stationary coefficients
      (padded with zeros, or truncated);
    * direct: tr(G^{-1} V) * sigma^2, V the limiting direct covariance,
      Toeplitz with entries g(d) = sum_{j,l < h} w_j w_l gamma(j-l+d),
      evaluated exactly from the finite double sum.
    """
    G = _toeplitz(gamma[:dim])
    try:
        factor = cho_factor(G)
    except np.linalg.LinAlgError as exc:
        raise SingularGamma("autocovariance matrix of dimension %d is not "
                            "positive definite: %s" % (dim, exc)) from exc
    ar = ar_coefficients(model)[1]
    padded = np.zeros(dim)
    padded[:min(dim, ar.size)] = ar[:dim]
    M = _power_sum(companion_matrix(padded), w)
    plugin = float(np.sum((G @ M) * cho_solve(factor, M.T).T) * model.sigma2)
    h = len(w)
    offsets = np.subtract.outer(np.arange(h), np.arange(h))
    lags = np.abs(offsets + np.arange(dim)[:, None, None])
    g = gamma[lags].reshape(dim, h * h) @ np.outer(w, w).ravel()
    direct = float(np.trace(cho_solve(factor, _toeplitz(g))) * model.sigma2)
    return plugin, direct


def _unit_root_costs(name, model, h, k):
    """(plug-in, direct) costs of a unit-root model at working order k,
    both zero at k = 1; name is the caller's, for the TypeError."""
    if not isinstance(model, UnitRootArModel):
        raise TypeError("%s needs a UnitRootArModel" % name)
    if h < 1:
        raise ValueError("horizon must be at least 1")
    if k < 1:
        raise ValueError("order must be at least 1")
    if k == 1:
        return 0.0, 0.0
    return _costs(model, k - 1, _gamma(model, h + k - 3),
                  level_ma_weights(model, h - 1))


def plugin_cost(model, h, k):
    """Estimation cost of the plug-in predictor at working order k.

    The trace-form constant from the scaled excess-MSPE limit of the
    plug-in predictor for a unit-root model; zero at k = 1 (only the
    nonstationarity term remains there).
    """
    return _unit_root_costs("plugin_cost", model, h, k)[0]


def direct_cost(model, h, k):
    """Estimation cost of the direct h-step predictor at working order k.

    Evaluates the limiting covariance of the h-step regression scores as
    an exact double sum over the MA weights and applies the inverse
    autocovariance trace; zero at k = 1.
    """
    return _unit_root_costs("direct_cost", model, h, k)[1]


def closed_form_h2(model, k, method):
    """Two-step estimation costs in printed closed form.

    Exists purely as an independent oracle for plugin_cost/direct_cost at
    h = 2:

        plug-in: ((k-2) + alpha_{k-1}^2 + 2 alpha_1 b_1 + b_1^2 (k-1)) sigma^2
        direct:  ((k-1) (1 + b_1^2) + 2 alpha_1 b_1) sigma^2

    with alpha_j = 0 for j beyond the stationary order.
    """
    if not isinstance(model, UnitRootArModel):
        raise TypeError("closed_form_h2 needs a UnitRootArModel")
    if k < 2:
        raise ValueError("the closed forms need k >= 2")
    alpha = model.stationary
    a1 = alpha[0] if model.p >= 1 else 0.0
    ak = alpha[k - 2] if k - 1 <= model.p else 0.0
    b1 = 1.0 + a1
    if method == PLUG_IN:
        value = (k - 2) + ak * ak + 2.0 * a1 * b1 + b1 * b1 * (k - 1)
    elif method == DIRECT:
        value = (k - 1) * (1.0 + b1 * b1) + 2.0 * a1 * b1
    else:
        raise ValueError("method must be %r or %r" % (PLUG_IN, DIRECT))
    return float(value * model.sigma2)


@dataclass(frozen=True)
class TheoreticalLoss:
    """Asymptotic loss of a candidate (order, method) pair at horizon h.

    value is +inf exactly when the working order is below the minimal
    order of the method (the candidate cannot be consistent there).
    """

    value: float
    k: int
    method: str
    h: int


def _losses(model, h, K, keys):
    """TheoreticalLoss of each (k, method) key, all k <= K, in one pass.

    Each order's two costs come from one _costs call at dimension
    k - shift, with shift = 1 for a unit-root model (whose differences
    are stationary) and 0 for a stable one: the length the levels
    polynomial has beyond the stationary one.  The plug-in minimal order
    is the levels order.
    """
    levels, stationary = ar_coefficients(model)
    shift = len(levels) - len(stationary)
    minimal = {PLUG_IN: len(levels), DIRECT: direct_coefficients(model, h).p_h}
    w = level_ma_weights(model, h - 1)
    common = 2.0 * model.sigma2 * float(np.sum(w)) ** 2 if shift else 0.0
    gamma, costs, out = None, {}, {}
    for k, method in keys:
        if k < minimal[method]:
            value = math.inf
        elif k == shift:
            value = common  # unit root, k = 1: no estimation cost
        else:
            if gamma is None:  # lags of the largest dimension, K - shift
                gamma = _gamma(model, h + K - shift - 2)
            if k not in costs:
                costs[k] = _costs(model, k - shift, gamma, w)
            value = common + costs[k][method == DIRECT]
        out[k, method] = TheoreticalLoss(value=value, k=k, method=method, h=h)
    return out


def _check_candidate(k, method):
    if k < 1:
        raise ValueError("order must be at least 1")
    if method not in (PLUG_IN, DIRECT):
        raise ValueError("method must be %r or %r" % (PLUG_IN, DIRECT))


def loss(model, h, k, method):
    """Asymptotic loss of (k, method) for a unit-root model at horizon h.

    Finite values are 2*sigma^2*(sum_{j<h} b_j)^2 plus the method's
    estimation cost; below the minimal order (the full levels order for
    plug-in, the minimal direct order for direct) the loss is +inf.
    """
    if not isinstance(model, UnitRootArModel):
        raise TypeError("loss needs a UnitRootArModel; see loss_stationary")
    _check_candidate(k, method)
    return _losses(model, h, k, [(k, method)])[k, method]


def loss_stationary(model, h, k, method):
    """Asymptotic loss analog for a stable model without a unit root.

    Same trace structure as the unit-root costs but in the full k
    dimensions of the level process (whose autocovariances replace those
    of the differences), and with no nonstationarity term.  Infinite
    below the true order (plug-in) or the minimal direct order (direct).
    """
    if not isinstance(model, StationaryArModel):
        raise TypeError("loss_stationary needs a StationaryArModel")
    _check_candidate(k, method)
    return _losses(model, h, k, [(k, method)])[k, method]


def loss_table(model, h, K):
    """All candidate losses for k = 1..K, keyed by (k, method).

    Each entry equals loss (or loss_stationary) of its key: both go
    through the same per-dimension cost kernel.
    """
    return _losses(model, h, K, [(k, method) for k in range(1, K + 1)
                                 for method in (PLUG_IN, DIRECT)])


def best_combinations(model, h, K):
    """Set of loss-minimizing (order, method) pairs over k = 1..K.

    Ties within a relative tolerance of 1e-10 are all reported; callers
    that need a single representative conventionally take the smallest
    order, plug-in before direct.
    """
    return _best(loss_table(model, h, K), K)


def _best(table, K):
    """best_combinations of a loss table over k = 1..K."""
    finite = {key: entry.value for key, entry in table.items()
              if math.isfinite(entry.value)}
    if not finite:
        raise ValueError("no finite loss up to K = %d; raise K" % K)
    floor = min(finite.values())
    slack = TIE_REL_TOL * max(1.0, abs(floor))
    return {key for key, value in finite.items() if value <= floor + slack}


def quartic_family(a1):
    """One-parameter quartic unit-root family used by the gap study.

    The levels polynomial factors as (1 - z)(1 + a1 z)(1 + a2 z^2) with
    a2 = a1^2 - a1 + 1, giving an AR(4) in levels with unit innovation
    variance.  Valid for 0 < a1 < 1.
    """
    if not 0.0 < a1 < 1.0:
        raise ValueError("a1 must lie strictly between 0 and 1")
    a2 = a1 * a1 - a1 + 1.0
    levels = (1.0 - a1, a1 - a2, a2 * (1.0 - a1), a1 * a2)
    return unit_root_model(levels, sigma2=1.0)


def minimal_order_cost_gap(a1):
    """Direct-minus-plug-in cost gap at the respective minimal orders.

    For the quartic family, three-step prediction admits a direct
    predictor of order 3 while the plug-in predictor needs the full
    order 4; the gap direct_cost(model, 3, 3) - plugin_cost(model, 3, 4)
    measures which side the order saving favors.

    The gap is the limit, as n grows, of n times the MSPE of the fitted
    direct order-3 three-step predictor minus that of the fitted plug-in
    order-4 predictor (sigma^2 = 1 in this family): both losses carry the
    same nonstationarity term 2*sigma^2*(sum_{j<3} b_j)^2, which cancels.
    Two estimate_mspe runs with one seed, and so one innovation stream,
    estimate it by the difference of their scaled excesses.
    """
    model = quartic_family(a1)
    gamma, w = _gamma(model, 4), level_ma_weights(model, 2)
    return _costs(model, 2, gamma, w)[1] - _costs(model, 3, gamma, w)[0]

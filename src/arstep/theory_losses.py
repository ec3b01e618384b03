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
one Yule-Walker solve and the AR recursion, and the limiting covariance
of the direct predictor is evaluated as a finite double sum, never by
simulation.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import cho_factor, cho_solve  # uncalled; perfbench/tracer.py wraps them
from .errors import SingularGamma
from .model_core import (DIRECT, PLUG_IN, UnitRootArModel, _check_method,
                         _check_predictor, _count, _unscaled,
                         _variance_units, ar_coefficients,
                         direct_coefficients, level_ma_weights)

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
        if dim < 0:
            raise ValueError("dimension must be nonnegative, not %d" % dim)
        _count("dim", dim, 0)
        if dim > self.L + 1:
            raise ValueError("table holds lags up to %d, need %d"
                             % (self.L, dim - 1))
        return _toeplitz(self.gamma[:dim])


def _gamma(model, L):
    """gamma(0)..gamma(L) of the model's stationary representation, in
    units of 2^scale, (unit, scale) = _variance_units(model.sigma2).

    With a_1..a_p its coefficients, gamma(0..p) solve the p + 1
    Yule-Walker equations gamma(m) - sum_i a_i gamma(|m - i|) =
    unit [m == 0], m = 0..p, and every later lag is the recursion
    gamma(m) = sum_i a_i gamma(m - i) (Brockwell and Davis 1991, section
    3.3).  Neither step depends on L, so gamma(m) is the same for every
    L >= m.  Where the solve fails or gives no finite positive gamma(0),
    as it can for a valid model with stationary roots within about 1e-7
    of the unit circle, SingularGamma is raised.
    """
    a = ar_coefficients(model)[1]
    p = a.size
    m = np.arange(p + 1)[:, None]
    system = np.eye(p + 1)
    np.subtract.at(system, (m, np.abs(m - np.arange(1, p + 1))), a)
    rhs = np.zeros(p + 1)
    rhs[0] = _variance_units(model.sigma2)[0]
    gamma = np.empty(max(L, p) + 1)
    try:
        gamma[:p + 1] = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        gamma[0] = math.nan
    if not 0.0 < gamma[0] < math.inf:  # NaN fails too
        raise SingularGamma("the Yule-Walker equations have no solution "
                            "with finite positive gamma(0)")
    backward = a[::-1]
    for lag in range(p + 1, L + 1):
        gamma[lag] = np.dot(backward, gamma[lag - p:lag])
    return gamma[:L + 1]


def autocovariances(model, L):
    """Autocovariances of the model's stationary representation.

    The stationary representation is the differenced series for a
    unit-root model and the series itself for a stable one; its
    autocovariances are exact, from one Yule-Walker solve for lags 0..p
    and the AR recursion beyond, inf where they exceed the float range.

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
    L = _count("L", L, 0)
    gamma = _gamma(model, L)
    scale = _variance_units(model.sigma2)[1]
    return AutocovarianceTable(gamma=_unscaled(gamma, scale), L=L)


def _costs(model, D, w):
    """(plug-in, direct) estimation costs of every dimension 1..D, in the
    units of _gamma.

    w holds the level MA weights w_0..w_{h-1} of the horizon, and the
    autocovariances come from _gamma up to lag h + D - 2.  Entry d - 1
    of each array is the cost in dimension d, with G_d the d x d
    autocovariance matrix:

    * plug-in: tr(G_d M_d G_d^{-1} M_d') * sigma^2, M_d = sum_j w_j
      S^(h-1-j) with S the d x d companion matrix of the stationary
      coefficients, truncated to D and padded with zeros; an entry
      below min(p, D), p the number of coefficients, is no cost;
    * direct: tr(G_d^{-1} V_d) * sigma^2, V_d Toeplitz with entries
      g(m) = sum_{j,l < h} w_j w_l gamma(|j - l + m|), evaluated exactly
      from the finite double sum.

    With F = L^{-1}, L L' = G_D, G_d^{-1} = sum_{i<d} f_i' f_i over the
    leading d entries of the rows f_i of F, so each trace is a running
    sum of one increment per row: (M f_i)' G (M f_i) and f_i' V f_i.
    Row i of F is built from F[:i, :i] and G[:i+1, :i+1] alone.  At any
    split s >= p, S is block upper triangular, so M's leading s x s
    block is the dimension-s power sum and M f_i vanishes past
    s = max(i + 1, p).

    Prefix invariant: every operation behind entry d acts on operands of
    the same shape here as in a call at D = d, and none spans D, so entry
    d is == to that call's last entry (the plug-in one for d >= p, where
    truncation to d leaves the coefficients whole; callers read no
    plug-in entry below the levels order).
    """
    a = ar_coefficients(model)[1][:D]
    p, h = a.size, len(w)
    gamma = _gamma(model, h + D - 2)
    G = _toeplitz(gamma[:D])
    # M by Horner: column 0 of X S is the row sums of X[:, :p] * a, the
    # rest is X shifted one column right.
    M = np.diag(np.full(D, w[0]))
    for weight in w[1:]:
        first = np.sum(M[:, :p] * a, axis=1)
        M = np.concatenate((first[:, None], M[:, :-1]), axis=1)
        M.reshape(-1)[::D + 1] += weight
    offsets = np.subtract.outer(np.arange(h), np.arange(h))
    lags = np.abs(offsets + np.arange(D)[:, None, None])
    V = _toeplitz(np.sum(gamma[lags].reshape(D, h * h)
                         * np.outer(w, w).ravel(), axis=1))
    F = np.zeros((D, D))
    plugin, direct = np.empty(D), np.empty(D)
    for i in range(D):
        li = F[:i, :i] @ G[i, :i]  # row i of L, left of the diagonal
        pivot = G[i, i] - li @ li
        if not pivot > 0.0:  # NaN fails too
            raise SingularGamma("autocovariance matrix of dimension %d is "
                                "not positive definite" % (i + 1))
        root = math.sqrt(pivot)
        F[i, :i] = -(li @ F[:i, :i]) / root
        F[i, i] = 1.0 / root
        f, s = F[i, :i + 1], max(i + 1, p)
        y = M[:s, :i + 1] @ f
        plugin[i] = y @ (G[:s, :s] @ y)
        direct[i] = f @ (V[:i + 1, :i + 1] @ f)
    unit = _variance_units(model.sigma2)[0]
    return np.cumsum(plugin) * unit, np.cumsum(direct) * unit


def _order_costs(model, h, k):
    """(plug-in, direct) costs of either model kind at working order k:
    the last entries of one _costs pass at dimension k - shift (see
    _losses), both zero at k = shift."""
    if h < 1:
        raise ValueError("horizon must be at least 1")
    if k < 1:
        raise ValueError("order must be at least 1")
    _count("h", h, 1)
    _count("k", k, 1)
    levels, stationary = ar_coefficients(model)
    shift = len(levels) - len(stationary)
    if k == shift:
        return 0.0, 0.0
    costs = _costs(model, k - shift, level_ma_weights(model, h - 1))
    scale = _variance_units(model.sigma2)[1]
    return _unscaled([costs[0][-1], costs[1][-1]], scale).tolist()


def plugin_cost(model, h, k):
    """Estimation cost of the plug-in predictor at working order k.

    The trace-form constant from the scaled excess-MSPE limit of the
    plug-in predictor, for either model kind; zero at k = 1 for a
    unit-root model (only the nonstationarity term remains there).
    """
    return _order_costs(model, h, k)[0]


def direct_cost(model, h, k):
    """Estimation cost of the direct h-step predictor at working order k.

    Evaluates the limiting covariance of the h-step regression scores as
    an exact double sum over the MA weights and applies the inverse
    autocovariance trace, for either model kind; zero at k = 1 for a
    unit-root model.
    """
    return _order_costs(model, h, k)[1]


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
    _check_method(method)
    if k < 2:
        raise ValueError("the closed forms need k >= 2")
    _count("k", k, 2)
    alpha = model.stationary
    a1 = alpha[0] if model.p >= 1 else 0.0
    ak = alpha[k - 2] if k - 1 <= model.p else 0.0
    b1 = 1.0 + a1
    if method == PLUG_IN:
        value = (k - 2) + ak * ak + 2.0 * a1 * b1 + b1 * b1 * (k - 1)
    else:
        value = (k - 1) * (1.0 + b1 * b1) + 2.0 * a1 * b1
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

    Order k's two costs are entry k - shift of one _costs call at
    dimension K - shift, made only if some key needs a cost, with
    shift = 1 for a unit-root model (whose differences are stationary)
    and 0 for a stable one: the length the levels polynomial has beyond
    the stationary one.  The plug-in minimal order is the levels order,
    so every plug-in entry read lies at or above the stationary order,
    where the prefix invariant of _costs makes it == to the call at
    D = k - shift that a stand-alone loss makes.  Each value is summed
    in the units of _gamma and scaled back once.
    """
    levels, stationary = ar_coefficients(model)
    shift = len(levels) - len(stationary)
    minimal = {PLUG_IN: len(levels), DIRECT: direct_coefficients(model, h).p_h}
    w = level_ma_weights(model, h - 1)
    unit, scale = _variance_units(model.sigma2)
    common = 2.0 * unit * float(np.sum(w)) ** 2 if shift else 0.0
    costs, values = None, []
    for k, method in keys:
        if k < minimal[method]:
            value = math.inf
        elif k == shift:
            value = common  # unit root, k = 1: no estimation cost
        else:
            if costs is None:  # every dimension up to K - shift
                costs = _costs(model, K - shift, w)
            value = common + float(costs[method == DIRECT][k - shift - 1])
        values.append(value)
    values = _unscaled(values, scale).tolist()
    return {(k, method): TheoreticalLoss(value=value, k=k, method=method, h=h)
            for (k, method), value in zip(keys, values)}


def loss(model, h, k, method):
    """Asymptotic loss of (k, method) at horizon h, for either model kind.

    For a unit-root model, finite values are 2*sigma^2*(sum_{j<h} b_j)^2
    plus the method's estimation cost.  A stable model has the same
    trace structure in the full k dimensions of the level process (whose
    autocovariances replace those of the differences) and no
    nonstationarity term.  Below the minimal order (the full levels
    order for plug-in, the minimal direct order for direct) the loss is
    +inf.
    """
    _check_predictor(method, k, h)
    return _losses(model, h, k, [(k, method)])[k, method]


def loss_table(model, h, K):
    """All candidate losses for k = 1..K, keyed by (k, method).

    Every cost comes from one _costs pass at dimension K - shift whose
    entry for each dimension depends only on that dimension's leading
    blocks (the prefix invariant), so each entry is == to loss of its
    key, which makes the pass at its own dimension.
    """
    h, K = _count("h", h, 1), _count("K", K, 1)
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
    return UnitRootArModel(levels, sigma2=1.0)


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
    plugin, direct = _costs(model, 3, level_ma_weights(model, 2))
    return math.ldexp(direct[1] - plugin[2], _variance_units(model.sigma2)[1])

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
                         companion_matrix, direct_coefficients,
                         impulse_response, level_ma_weights, unit_root_model,
                         _auto_truncation, _power_sum)

#: Relative slack within which two losses count as tied.
TIE_REL_TOL = 1e-10


def _stationary_ar(model):
    """AR coefficients of the model's stationary representation.

    For a unit-root model that is the deflated polynomial (driving the
    differenced series); for a stable model it is the levels polynomial
    itself.
    """
    if isinstance(model, UnitRootArModel):
        return np.asarray(model.stationary, dtype=float)
    if isinstance(model, StationaryArModel):
        return np.asarray(model.coeffs, dtype=float)
    raise TypeError("expected UnitRootArModel or StationaryArModel, got %r"
                    % type(model).__name__)


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


class _Expansion:
    """Autocovariances of one model from one MA expansion.

    The truncation length T (one eigvals) and the MA weights
    c_0..c_{T+L_max} are computed once, and with them
    gamma(m) = sigma^2 * sum_{i<=T} c_i c_{i+m} for every m <= L_max.
    Every lag sums the same T + 1 products, so gamma(0)..gamma(L) equal
    a stand-alone autocovariances(model, L).  Cholesky factors are kept
    per dimension for the life of the object, which is one call.
    """

    def __init__(self, model, L_max):
        ar = _stationary_ar(model)
        T = _auto_truncation(ar)
        c = impulse_response(ar, T + L_max)
        self.gamma = np.array([model.sigma2 * float(np.dot(c[:T + 1],
                                                           c[m:m + T + 1]))
                               for m in range(L_max + 1)])
        self._factors = {}

    def factor(self, dim):
        """(cho_factor, matrix) of the dim-dimensional autocovariances."""
        if dim not in self._factors:
            matrix = _toeplitz(self.gamma[:dim])
            try:
                self._factors[dim] = cho_factor(matrix), matrix
            except np.linalg.LinAlgError as exc:
                raise SingularGamma(
                    "autocovariance matrix of dimension %d is not positive "
                    "definite: %s" % (dim, exc)) from exc
        return self._factors[dim]


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
    return AutocovarianceTable(gamma=_Expansion(model, L).gamma, L=int(L))


def _companion_power_sum(model, dim, w):
    """sum_j w_j S^(h-1-j) for the dim x dim companion matrix S."""
    ar = _stationary_ar(model)
    padded = np.zeros(dim)
    padded[:min(dim, ar.size)] = ar[:dim]
    return _power_sum(companion_matrix(padded), w)


def companion_power_sum(model, h, dim):
    """Weighted sum of companion powers entering the plug-in cost.

    Returns sum_{j=0}^{h-1} w_j * S^(h-1-j), where S is the dim x dim
    companion matrix of the stationary-representation coefficients
    (padded with zeros, or truncated, to the requested dimension) and
    w_j are the MA weights of the levels polynomial.  For h = 1 this is
    the identity.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if h < 1:
        raise ValueError("horizon must be at least 1")
    return _companion_power_sum(model, dim, level_ma_weights(model, h - 1))


def _trace_plugin(model, dim, expansion, w):
    """tr(G M G^{-1} M') * sigma^2 at the given matrix dimension.

    w holds the level MA weights w_0..w_{h-1} of the horizon.
    """
    factor, G = expansion.factor(dim)
    M = _companion_power_sum(model, dim, w)
    left = G @ M
    right = cho_solve(factor, M.T)
    return float(np.sum(left * right.T) * model.sigma2)


def _trace_direct(model, dim, expansion, w):
    """tr(G^{-1} V) * sigma^2 with V the limiting direct covariance.

    V is Toeplitz with entries g(d) = sum_{j,l < h} w_j w_l gamma(j-l+d),
    evaluated exactly from the finite double sum.
    """
    h = len(w)
    factor, _ = expansion.factor(dim)
    offsets = np.subtract.outer(np.arange(h), np.arange(h))
    lags = np.abs(offsets + np.arange(dim)[:, None, None])
    g = expansion.gamma[lags].reshape(dim, h * h) @ np.outer(w, w).ravel()
    return float(np.trace(cho_solve(factor, _toeplitz(g))) * model.sigma2)


def _shared(model, h, dim):
    """(expansion, level weights) for the traces of one call up to dim.

    The direct trace needs lags up to h + dim - 2, the plug-in trace up
    to dim - 1.
    """
    return _Expansion(model, h + dim - 2), level_ma_weights(model, h - 1)


def plugin_cost(model, h, k):
    """Estimation cost of the plug-in predictor at working order k.

    The trace-form constant from the scaled excess-MSPE limit of the
    plug-in predictor for a unit-root model; zero at k = 1 (only the
    nonstationarity term remains there).
    """
    if not isinstance(model, UnitRootArModel):
        raise TypeError("plugin_cost needs a UnitRootArModel")
    if k < 1:
        raise ValueError("order must be at least 1")
    if k == 1:
        return 0.0
    return _trace_plugin(model, k - 1, *_shared(model, h, k - 1))


def direct_cost(model, h, k):
    """Estimation cost of the direct h-step predictor at working order k.

    Evaluates the limiting covariance of the h-step regression scores as
    an exact double sum over the MA weights and applies the inverse
    autocovariance trace; zero at k = 1.
    """
    if not isinstance(model, UnitRootArModel):
        raise TypeError("direct_cost needs a UnitRootArModel")
    if k < 1:
        raise ValueError("order must be at least 1")
    if k == 1:
        return 0.0
    return _trace_direct(model, k - 1, *_shared(model, h, k - 1))


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

    The traces of all keys share one _Expansion and one set of level MA
    weights; their dimension is k - 1 for a unit-root model (whose
    differences are stationary) and k for a stable one.
    """
    unit_root = isinstance(model, UnitRootArModel)
    shift = 1 if unit_root else 0
    minimal = {PLUG_IN: model.p + shift,
               DIRECT: direct_coefficients(model, h).p_h}
    w = level_ma_weights(model, h - 1)
    common = 2.0 * model.sigma2 * float(np.sum(w)) ** 2 if unit_root else 0.0
    expansion = None
    out = {}
    for k, method in keys:
        if k < minimal[method]:
            value = math.inf
        elif k == shift:
            value = common  # unit root, k = 1: no estimation cost
        else:
            if expansion is None:  # as _shared(model, h, K - shift)
                expansion = _Expansion(model, h + K - shift - 2)
            trace = _trace_plugin if method == PLUG_IN else _trace_direct
            value = common + trace(model, k - shift, expansion, w)
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

    Each entry equals loss (or loss_stationary) of its key; the table
    computes the model's MA expansion once, not once per entry.
    """
    if not isinstance(model, (UnitRootArModel, StationaryArModel)):
        raise TypeError("loss_table needs a UnitRootArModel or a "
                        "StationaryArModel")
    return _losses(model, h, K, [(k, method) for k in range(1, K + 1)
                                 for method in (PLUG_IN, DIRECT)])


def best_combinations(model, h, K):
    """Set of loss-minimizing (order, method) pairs over k = 1..K.

    Ties within a relative tolerance of 1e-10 are all reported; callers
    that need a single representative conventionally take the smallest
    order, plug-in before direct.
    """
    table = loss_table(model, h, K)
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
    shared = _shared(model, 3, 3)
    return _trace_direct(model, 2, *shared) - _trace_plugin(model, 3, *shared)

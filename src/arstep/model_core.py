"""Exact algebra of autoregressive models with (and without) a unit root.

The central object is an AR(p+1) process in levels,

    x_t = a_1 x_{t-1} + ... + a_{p+1} x_{t-p-1} + eps_t,

whose characteristic polynomial A(z) = 1 - a_1 z - ... - a_{p+1} z^{p+1}
factors as (1 - z) * (1 - alpha_1 z - ... - alpha_p z^p) with a stable
second factor.  Series are stored as plain 1-D float arrays holding
x_1..x_n; values before the sample start are taken to be zero by
convention, and docstrings index observations 1-based to match that
convention.

This module provides model validation and unit-root deflation, companion
matrices, the h-step direct coefficient vector and its minimal order,
moving-average weight sequences of 1/alpha(z) and 1/A(z), the h-step
innovation variance, and first differencing.  Every MA weight is an
impulse response computed by scipy's compiled lfilter recursion
(``_kernels.lfilter``), whose module the first response loads.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import lfilter
from .errors import NotUnitRoot, UnstableStationaryPart

#: Methods recognized throughout the package.
PLUG_IN = "plug-in"
DIRECT = "direct"

#: Relative threshold below which a direct coefficient counts as zero.
ZERO_TOL = 1e-9

#: Stability margin used by the root checks.
STABILITY_EPS = 1e-8

#: Number of unit-circle sample points for the polynomial stability scan.
_CIRCLE_POINTS = 720

#: Tail size at which the MA weight recursion is truncated.
_MA_TAIL = 1e-14

#: Hard cap on automatic MA truncation lengths.
_MA_CAP = 100_000


@dataclass(frozen=True)
class UnitRootArModel:
    """AR(p+1) levels model with exactly one unit root.

    Fields
    ------
    levels : tuple of float
        Coefficients a_1..a_{p+1} of the levels recursion.
    stationary : tuple of float
        Deflated coefficients alpha_1..alpha_p (empty when p = 0).
    sigma2 : float
        Innovation variance.
    p : int
        Order of the stationary factor; the levels order is p + 1.
    """

    levels: tuple
    stationary: tuple
    sigma2: float
    p: int


@dataclass(frozen=True)
class StationaryArModel:
    """Stable AR(p) model in levels (no unit root).

    Used by the stationary branch of the theoretical losses and by the
    stationary data-generating processes of the simulation module.
    """

    coeffs: tuple
    sigma2: float
    p: int


def _as_floats(seq):
    return tuple(float(v) for v in seq)


@functools.lru_cache(maxsize=16)
def _circle_powers(p):
    """z^1..z^p at the sampled points of |z| = 1, one row per point.

    Built once per order and read-only, so every stability check of an
    order shares one table with the values of a fresh computation.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, _CIRCLE_POINTS, endpoint=False)
    z = np.exp(1j * theta)
    powers = z[:, None] ** np.arange(1, p + 1)[None, :]
    powers.flags.writeable = False
    return powers


def _poly_on_circle(coeffs):
    """Minimum of |1 - sum coeffs_i z^i| over sampled points of |z| = 1."""
    coeffs = np.asarray(coeffs, dtype=float)
    values = 1.0 - _circle_powers(len(coeffs)) @ coeffs
    return float(np.min(np.abs(values)))


def _spectral_radius(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs)))))


def _check_stable(coeffs, label):
    """Raise UnstableStationaryPart unless 1 - sum coeffs_i z^i is stable.

    Two independent checks: the polynomial must stay away from zero on the
    unit circle, and the companion matrix spectral radius must be strictly
    below one.  Both carry a small margin so that borderline models are
    rejected instead of silently accepted.
    """
    if len(coeffs) == 0:
        return
    if not np.isfinite(coeffs).all():
        raise UnstableStationaryPart(
            "%s polynomial has a NaN or infinite coefficient" % label)
    if _poly_on_circle(coeffs) <= STABILITY_EPS:
        raise UnstableStationaryPart(
            "%s polynomial nearly vanishes on the unit circle" % label)
    if _spectral_radius(coeffs) >= 1.0 - STABILITY_EPS:
        raise UnstableStationaryPart(
            "%s polynomial has a characteristic root on or inside the "
            "unit circle" % label)


def deflate_unit_root(levels):
    """Divide the levels polynomial by (1 - z), validating the unit root.

    Parameters
    ----------
    levels : sequence of float
        Coefficients a_1..a_{p+1} of the levels polynomial
        A(z) = 1 - a_1 z - ... - a_{p+1} z^{p+1}.

    Returns
    -------
    ndarray
        Coefficients alpha_1..alpha_p of the stable factor, so that
        (1 - z) * (1 - alpha_1 z - ... - alpha_p z^p) = A(z).

    Raises
    ------
    NotUnitRoot
        If |A(1)| exceeds the tolerance 1e-9 * (1 + sum |a_i|).
    UnstableStationaryPart
        If the quotient polynomial is not strictly stable.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("levels must be a nonempty 1-D coefficient sequence")
    tol = 1e-9 * (1.0 + float(np.sum(np.abs(levels))))
    at_one = 1.0 - float(np.sum(levels))
    if not abs(at_one) <= tol:  # NaN fails too
        raise NotUnitRoot(
            "levels polynomial at z = 1 is %.3e, beyond tolerance %.3e"
            % (at_one, tol))
    # Synthetic division of [1, -a_1, ..., -a_{p+1}] by (1 - z): the
    # quotient coefficients satisfy q_0 = 1, q_i = q_{i-1} - a_i, and the
    # last of them must absorb the trailing coefficient (remainder = A(1),
    # already checked above).
    quotient = np.empty(levels.size - 1, dtype=float)
    acc = 1.0
    for i, a in enumerate(levels[:-1]):
        acc = acc - a
        quotient[i] = acc
    alpha = -quotient
    _check_stable(alpha, "deflated")
    return alpha


def unit_root_model(levels, sigma2=1.0):
    """Validate levels coefficients and build a UnitRootArModel.

    The trailing coefficient must be nonzero (it fixes the order), the
    polynomial must vanish at z = 1 within tolerance, and the deflated
    factor must be strictly stable.
    """
    levels = _as_floats(levels)
    if len(levels) == 0:
        raise ValueError("levels must be nonempty")
    if levels[-1] == 0.0:
        raise ValueError("trailing levels coefficient must be nonzero")
    if not 0.0 < sigma2 < math.inf:  # NaN fails too
        raise ValueError("sigma2 must be finite and positive, not %r"
                         % (sigma2,))
    alpha = deflate_unit_root(levels)
    return UnitRootArModel(levels=levels, stationary=tuple(float(a) for a in alpha),
                           sigma2=float(sigma2), p=len(levels) - 1)


def stationary_model(coeffs, sigma2=1.0):
    """Validate a stable AR(p) levels model (no unit root), p >= 1."""
    coeffs = _as_floats(coeffs)
    if len(coeffs) == 0:
        raise ValueError("levels must be nonempty")
    if coeffs[-1] == 0.0:
        raise ValueError("trailing coefficient must be nonzero")
    if not 0.0 < sigma2 < math.inf:  # NaN fails too
        raise ValueError("sigma2 must be finite and positive, not %r"
                         % (sigma2,))
    _check_stable(coeffs, "levels")
    return StationaryArModel(coeffs=coeffs, sigma2=float(sigma2),
                             p=len(coeffs))


def ar_coefficients(model):
    """(levels, stationary) coefficient vectors of either model type.

    stationary drives the stationary representation: the deflated
    polynomial of a unit-root model, the levels one of a stable model.
    """
    if isinstance(model, UnitRootArModel):
        return (np.asarray(model.levels, dtype=float),
                np.asarray(model.stationary, dtype=float))
    if isinstance(model, StationaryArModel):
        coeffs = np.asarray(model.coeffs, dtype=float)
        return coeffs, coeffs
    raise TypeError("expected UnitRootArModel or StationaryArModel, got %r"
                    % type(model).__name__)


def companion_matrix(coeffs):
    """Companion matrix with the coefficient vector as its first column.

    For coeffs = (a_1, ..., a_k) the result is the k x k matrix whose
    first column is the coefficient vector and whose remaining block is
    the shifted identity:

        [[a_1,     1, 0, ..., 0],
         [a_2,     0, 1, ..., 0],
         ...
         [a_k,     0, 0, ..., 0]]

    Multiplying a lagged state vector (x_t, ..., x_{t-k+1})' by the
    transpose advances it one step.  A stack of coefficient vectors (one
    per row) gives a stack of companion matrices.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 0 or coeffs.shape[-1] == 0:
        raise ValueError("coeffs must be a nonempty sequence or a stack "
                         "of them")
    k = coeffs.shape[-1]
    out = np.zeros(coeffs.shape + (k,))
    out[..., 0] = coeffs
    out[..., np.arange(k - 1), np.arange(1, k)] = 1.0
    return out


def _power_sum(S, w):
    """sum_{j<h} w_j S^(h-1-j) for h = w.shape[-1], by Horner's rule.

    S is a k x k matrix and w a weight vector, or stacks of them with
    one weight row per matrix.
    """
    w = np.asarray(w)
    eye = np.eye(S.shape[-1])
    out = w[..., 0, None, None] * eye
    for j in range(1, w.shape[-1]):
        out = out @ S + w[..., j, None, None] * eye
    return out


def companion_apply(coeffs, vec):
    """Apply the companion matrix of `coeffs` to `vec` without forming
    it, on the last axis: stacks of both give one image per row."""
    coeffs = np.asarray(coeffs, dtype=float)
    vec = np.asarray(vec, dtype=float)
    out = coeffs * vec[..., :1]
    out[..., :-1] += vec[..., 1:]
    return out


def _companion_image(coeffs, h):
    """A^(h-1) coeffs, with A the companion matrix of the float array
    coeffs (coeffs itself at h = 1), by h - 1 companion_apply steps: a
    stack of coefficient vectors, one per row, gives the image of each.

    The steps run on a column-major copy, so that each elementwise
    operation sweeps the stack instead of one short row at a time; the
    image is returned row-major, with the values of row-major steps.
    """
    v = coeffs
    if h > 1:
        coeffs = v = np.asfortranarray(coeffs)
        for _ in range(h - 1):
            v = companion_apply(coeffs, v)
        v = np.ascontiguousarray(v)
    return v


@dataclass(frozen=True)
class DirectCoefficients:
    """h-step-ahead regression coefficients implied by a levels model.

    coeffs holds a_1(h)..a_m(h) with m the levels order; p_h is the largest
    index whose coefficient is nonzero (above a relative tolerance), i.e.
    the minimal working order of the direct h-step predictor.
    """

    h: int
    coeffs: tuple
    p_h: int


def direct_coefficients(model, h):
    """Exact h-step projection coefficients of the model.

    Computed as the (h-1)-fold companion-matrix image of the levels
    coefficient vector, by repeated matrix-vector products; at h = 1
    that is the levels coefficients themselves.

    Parameters
    ----------
    model : UnitRootArModel or StationaryArModel
    h : int
        Forecast horizon, at least 1.

    Returns
    -------
    DirectCoefficients
    """
    if h < 1:
        raise ValueError("horizon must be at least 1")
    a = ar_coefficients(model)[0]
    v = _companion_image(a, h)
    tol = ZERO_TOL * max(1.0, float(np.max(np.abs(v))))
    above = np.nonzero(np.abs(v) > tol)[0]
    p_h = int(above[-1]) + 1 if above.size else 1
    return DirectCoefficients(h=int(h), coeffs=tuple(float(c) for c in v),
                              p_h=p_h)


def impulse_response(coeffs, length):
    """Impulse response w_0..w_length of 1 / (1 - sum coeffs_i z^i).

    coeffs is one vector a_1..a_p, or a stack of them (one per row) for
    one response per row.  Each row is scipy's lfilter of a unit pulse
    through [1, -a_1, ..., -a_p], bit for bit at every length, sign of
    zero included, so a response is a prefix of every longer one and a
    stack equals its rows one by one.  A negative length is a
    ValueError.
    """
    if length < 0:
        raise ValueError("length must be nonnegative, not %d" % length)
    coeffs = np.asarray(coeffs, dtype=float)
    p = coeffs.shape[-1]
    rows = coeffs.reshape(math.prod(coeffs.shape[:-1]), p)
    pulse = np.zeros(length + 1)
    pulse[0] = 1.0
    w = np.empty((rows.shape[0], length + 1))
    for row, out in zip(rows, w):
        out[:] = lfilter([1.0], np.concatenate(([1.0], -row)), pulse)
    return w.reshape(coeffs.shape[:-1] + (length + 1,))


def _auto_truncation(alpha):
    """Truncation length making the neglected MA tail < 1e-14."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size == 0:
        return 0
    rho = _spectral_radius(alpha)
    if rho <= 0.0:
        return alpha.size
    scale = max(1.0, float(np.sum(np.abs(alpha))))
    length = int(math.ceil(math.log(_MA_TAIL / scale) / math.log(rho)))
    return min(max(length, alpha.size), _MA_CAP)


@dataclass(frozen=True)
class MaWeights:
    """Moving-average weights of the deflated and levels polynomials.

    c_j are the MA weights of 1/alpha(z) (c_0 = 1); b_j are their running
    sums and equal the MA weights of 1/A(z).  Both arrays have length
    J + 1.
    """

    c: np.ndarray
    b: np.ndarray
    J: int


def ma_weights(model, J=None):
    """MA weight sequences c_0..c_J and b_0..b_J of a unit-root model.

    c solves c_0 = 1, c_j = sum_{l=1}^{min(j,p)} alpha_l c_{j-l}; b is the
    cumulative sum of c.  J defaults to a length at which the neglected
    tail of c is below 1e-14 (the weights decay geometrically because the
    deflated polynomial is stable).
    """
    if not isinstance(model, UnitRootArModel):
        raise TypeError("ma_weights needs a UnitRootArModel")
    alpha = np.asarray(model.stationary, dtype=float)
    if J is None:
        J = _auto_truncation(alpha)
    c = impulse_response(alpha, J)
    b = np.cumsum(c)
    return MaWeights(c=c, b=b, J=int(J))


def level_ma_weights(model, length):
    """MA weights w_0..w_length of 1/A(z) for either model type.

    For a unit-root model these are the b_j; for a stationary model they
    are the ordinary impulse-response weights of the levels polynomial.
    """
    return impulse_response(ar_coefficients(model)[0], length)


def sigma_h_squared(model, h):
    """Variance of the h-step prediction error of the true model.

    Equals sigma^2 * sum_{j=0}^{h-1} w_j^2 with w the MA weights of the
    levels polynomial.
    """
    if h < 1:
        raise ValueError("horizon must be at least 1")
    w = level_ma_weights(model, h - 1)
    return float(model.sigma2 * np.dot(w, w))


def difference(series):
    """First difference with the zero pre-sample convention.

    Returns s_1..s_n with s_t = x_t - x_{t-1} and x_0 = 0, so the length
    is preserved and cumulative summation inverts the operation exactly.
    """
    return np.diff(_as_series(series), prepend=0.0)


def _as_series(series):
    """series as a 1-D float array; anything else is a ValueError."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    return series

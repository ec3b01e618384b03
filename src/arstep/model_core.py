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

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import lfilter
from .errors import NotUnitRoot, UnstableStationaryPart

#: Methods recognized throughout the package.
PLUG_IN = "plug-in"
DIRECT = "direct"


def _is_integer(value):
    """True for a Python or numpy integer, not a bool: the integer rule of
    every size and position."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name, value, least):
    """value as an int, if it is an integer (_is_integer) of at least
    least; ValueError otherwise.  The rule of every size argument."""
    if not _is_integer(value) or value < least:
        raise ValueError("%s must be an integer of at least %d, not %r"
                         % (name, least, value))
    return int(value)


def _position(name, value):
    """value as an int, if it is an integer (_is_integer); ValueError
    otherwise.  The rule of every position argument (a row bound, a
    sample end, a forecast origin), whose range its caller checks with
    its own error types."""
    if not _is_integer(value):
        raise ValueError("%s must be an integer, not %r" % (name, value))
    return int(value)


def _check_method(method):
    """The method rule of every predictor: PLUG_IN or DIRECT, else
    ValueError."""
    if method not in (PLUG_IN, DIRECT):
        raise ValueError("method must be %r or %r" % (PLUG_IN, DIRECT))


def _check_predictor(method, k, h):
    """The rule of every predictor: the method rule, then order k and
    horizon h integers of at least 1; ValueError otherwise."""
    _check_method(method)
    _count("k", k, 1)
    _count("h", h, 1)


#: Relative threshold below which a direct coefficient counts as zero.
ZERO_TOL = 1e-9

#: Stability margin used by the root checks.
STABILITY_EPS = 1e-8

#: The 720 sampled points of |z| = 1 of the polynomial stability scan.
_CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
_CIRCLE.flags.writeable = False


@dataclass(frozen=True)
class UnitRootArModel:
    """AR(p+1) levels model with exactly one unit root.

    Building one validates it: the checks of _validated, then
    deflate_unit_root, so the levels polynomial vanishes at z = 1 and its
    deflated factor is stable.  dataclasses.replace validates the same
    way.

    Fields
    ------
    levels : tuple of float
        Coefficients a_1..a_{p+1} of the levels recursion.
    sigma2 : float
        Innovation variance.
    stationary : tuple of float
        Deflated coefficients alpha_1..alpha_p (empty when p = 0),
        derived from levels.
    p : int
        Order of the stationary factor; the levels order is p + 1.
    """

    levels: tuple
    sigma2: float = 1.0
    stationary: tuple = field(init=False)
    p: int = field(init=False)

    def __post_init__(self):
        levels, sigma2 = _validated(self.levels, self.sigma2)
        alpha = deflate_unit_root(levels)
        _set_fields(self, levels=levels, sigma2=sigma2,
                    stationary=tuple(alpha.tolist()), p=alpha.size)


@dataclass(frozen=True)
class StationaryArModel:
    """Stable AR(p) model in levels (no unit root), p >= 1.

    Building one validates it: the checks of _validated, then a stable
    levels polynomial.  p is derived from coeffs.  Used by the stationary
    branch of the theoretical losses and by the stationary
    data-generating processes of the simulation module.
    """

    coeffs: tuple
    sigma2: float = 1.0
    p: int = field(init=False)

    def __post_init__(self):
        coeffs, sigma2 = _validated(self.coeffs, self.sigma2)
        _check_stable(coeffs, "levels")
        _set_fields(self, coeffs=coeffs, sigma2=sigma2, p=len(coeffs))


def _validated(coeffs, sigma2):
    """(coeffs, sigma2) as a tuple of floats and a float, after the
    checks both models share: at least one coefficient, a nonzero
    trailing one (it fixes the order), and sigma2 finite and positive."""
    coeffs = tuple(float(v) for v in coeffs)
    if len(coeffs) == 0:
        raise ValueError("levels must be nonempty")
    if coeffs[-1] == 0.0:
        raise ValueError("trailing coefficient must be nonzero")
    if not 0.0 < sigma2 < math.inf:  # NaN fails too
        raise ValueError("sigma2 must be finite and positive, not %r"
                         % (sigma2,))
    return coeffs, float(sigma2)


def _set_fields(model, **values):
    """Set fields of a frozen model from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(model, name, value)


def _poly_on_circle(coeffs):
    """Minimum of |1 - sum coeffs_i z^i| over the points of _CIRCLE.

    The sum runs by Horner's rule, in place on one complex vector: no
    power table and no BLAS product, whose threads may sleep.
    """
    values = np.zeros_like(_CIRCLE)
    for a in np.asarray(coeffs, dtype=float)[::-1].tolist():
        values += a
        values *= _CIRCLE
    np.subtract(1.0, values, out=values)
    return float(np.min(np.abs(values)))


def _spectral_radius(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
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
    ValueError
        If levels is not a nonempty 1-D sequence of finite values.
    NotUnitRoot
        If |A(1)| exceeds the tolerance 1e-9 * (1 + sum |a_i|).
    UnstableStationaryPart
        If the quotient polynomial is not strictly stable.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("levels must be a nonempty 1-D coefficient sequence")
    if not np.isfinite(levels).all():
        raise ValueError("levels hold a NaN or infinite coefficient")
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
    h = _count("h", h, 1)
    a = ar_coefficients(model)[0]
    v = _companion_image(a, h)
    tol = ZERO_TOL * max(1.0, float(np.max(np.abs(v))))
    above = np.nonzero(np.abs(v) > tol)[0]
    p_h = int(above[-1]) + 1 if above.size else 1
    return DirectCoefficients(h=h, coeffs=tuple(float(c) for c in v),
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
    length = _count("length", length, 0)
    coeffs = np.asarray(coeffs, dtype=float)
    p = coeffs.shape[-1]
    rows = coeffs.reshape(math.prod(coeffs.shape[:-1]), p)
    pulse = np.zeros(length + 1)
    pulse[0] = 1.0
    w = np.empty((rows.shape[0], length + 1))
    for row, out in zip(rows, w):
        out[:] = lfilter(np.concatenate(([1.0], -row)), pulse)
    return w.reshape(coeffs.shape[:-1] + (length + 1,))


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


def ma_weights(model, J):
    """MA weight sequences c_0..c_J and b_0..b_J of a unit-root model.

    c solves c_0 = 1, c_j = sum_{l=1}^{min(j,p)} alpha_l c_{j-l}; b is the
    cumulative sum of c.
    """
    if not isinstance(model, UnitRootArModel):
        raise TypeError("ma_weights needs a UnitRootArModel")
    c = impulse_response(np.asarray(model.stationary, dtype=float), J)
    b = np.cumsum(c)
    return MaWeights(c=c, b=b, J=J)


def level_ma_weights(model, length):
    """MA weights w_0..w_length of 1/A(z) for either model type.

    For a unit-root model these are the b_j; for a stationary model they
    are the ordinary impulse-response weights of the levels polynomial.
    """
    return impulse_response(ar_coefficients(model)[0], length)


def sigma_h_squared(model, h):
    """Variance of the h-step prediction error of the true model.

    Equals sigma^2 * sum_{j=0}^{h-1} w_j^2 with w the MA weights of the
    levels polynomial, computed in units of 2^scale (_variance_units) and
    scaled back once: inf where it exceeds the float range.
    """
    w = level_ma_weights(model, _count("h", h, 1) - 1)
    unit, scale = _variance_units(model.sigma2)
    return float(_unscaled(unit * np.dot(w, w), scale))


def _variance_units(sigma2):
    """(unit, scale): unit = sigma2 * 2^-scale in [1/4, 1), scale = 2s
    with s the math.frexp exponent of sqrt(sigma2).  Products, solves
    and square roots scale exactly by an even power of two, so a
    variance computed from the unit is, after _unscaled, the one at
    sigma2, with neither overflow nor subnormal digits lost inside."""
    scale = 2 * math.frexp(math.sqrt(sigma2))[1]
    return math.ldexp(sigma2, -scale), scale


def _unscaled(values, scale):
    """values * 2^scale: 0 where that underflows, inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, scale)


def difference(series):
    """First difference with the zero pre-sample convention.

    Returns s_1..s_n with s_t = x_t - x_{t-1} and x_0 = 0, so the length
    is preserved and cumulative summation inverts the operation exactly.
    """
    with np.errstate(over="ignore"):  # a step past the float range is inf
        return np.diff(_as_series(series), prepend=0.0)


def _as_series(series):
    """series as a 1-D float array; anything else is a ValueError."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    return series

"""Point forecasts from fitted coefficients and the series tail."""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistory
from .estimation import _normalized, _require_finite
from .model_core import _as_series, _check_predictor, _position, _unscaled


@dataclass(frozen=True)
class PredictorSpec:
    """A candidate predictor: working order, method, horizon, checked
    when built, also by dataclasses.replace (model_core._check_predictor).
    """

    k: int
    method: str
    h: int

    def __post_init__(self):
        _check_predictor(self.method, self.k, self.h)


@dataclass(frozen=True)
class Forecast:
    """A point forecast of x_{origin + horizon}."""

    value: float
    origin: int
    horizon: int
    spec: PredictorSpec


def predict(series, coeffs, origin=None):
    """Inner product of fitted coefficients with the regressor at origin.

    Forecasts x_{origin+h} as coeffs' x_origin(k) with x_origin(k) =
    (x_origin, ..., x_{origin-k+1})'.  The origin defaults to the series
    end; regressors are never padded with pre-sample zeros at prediction
    time (InsufficientHistory is raised instead), and a regressor holding
    NaN or inf raises NonFiniteSeries.  The product is taken on the tail
    divided by 2^e, e the math.frexp exponent of its largest entry, and
    scaled back once, so a representable forecast does not overflow on
    the way: under x -> 2^m x the forecast is 2^m times the unscaled
    one, rounded once (inf past the float range).

    Parameters
    ----------
    series : array of float
    coeffs : FittedCoefficients
    origin : int, optional
        1-based index n of the forecast origin.

    Returns
    -------
    Forecast
    """
    series = _as_series(series)
    n = series.size if origin is None else _position("origin", origin)
    if n > series.size:
        raise ValueError("origin %d exceeds series length %d" % (n, series.size))
    k = coeffs.k
    if n < k:
        raise InsufficientHistory(
            "origin %d has fewer than %d trailing observations" % (n, k))
    tail = series[n - k:n][::-1]
    _require_finite(tail)
    tail, e = _normalized(tail)
    value = float(_unscaled(np.dot(coeffs.coeffs, tail), e))
    return Forecast(value=value, origin=n, horizon=coeffs.h,
                    spec=PredictorSpec(k=k, method=coeffs.method, h=coeffs.h))

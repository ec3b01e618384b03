"""Numeric kernels bound under scipy's names, without importing scipy.

``lfilter`` is scipy.signal's, imported on its first call: the
import takes about a second, and only the simulation module filters
series.  ``cho_factor`` and ``cho_solve`` are numpy's Cholesky
factorization, kept as the inverse factor so that each later solve is
two matrix products.
"""

import numpy as np


def lfilter(b, a, x, axis=-1):
    """scipy.signal.lfilter(b, a, x, axis), imported on first use."""
    from scipy.signal import lfilter as scipy_lfilter

    return scipy_lfilter(b, a, x, axis=axis)


def cho_factor(matrix):
    """Inverse of the lower Cholesky factor L of a symmetric matrix.

    L L' = matrix.  Raises numpy.linalg.LinAlgError when the matrix is
    not positive definite (NaN entries included).
    """
    return np.linalg.inv(np.linalg.cholesky(matrix))


def cho_solve(factor, rhs):
    """Solve matrix @ X = rhs given factor = cho_factor(matrix) = L^{-1}."""
    return factor.T @ (factor @ rhs)

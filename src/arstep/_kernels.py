"""Numeric kernels bound under scipy's names, without importing scipy.

``lfilter`` runs scipy.signal.lfilter's compiled recursion,
``scipy.signal._sigtools._linear_filter``, which this module loads on
its own on the first call.  The ``scipy.signal`` package (about 530
modules, a second of start-up and 75 MB of memory) is never imported,
yet every output is scipy's bit for bit: it is the same C function.
Where the compiled module cannot be located (an unusual install), the
first call imports scipy.signal.lfilter itself, with the same results.

``cho_factor`` and ``cho_solve`` are numpy's Cholesky factorization,
kept as the inverse factor so that each later solve is two matrix
products.  No arstep code calls them: they stay bound in
``theory_losses`` only because ``perfbench/tracer.py`` looks them up
there by name.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_SIGTOOLS = "scipy.signal._sigtools"


def _sigtools():
    """scipy's compiled filter module, loaded from its file without
    importing scipy or scipy.signal; None when it cannot be located.

    The module is registered in sys.modules, so that a later ``import
    scipy.signal`` reuses it (and one already imported is taken as is).
    """
    module = sys.modules.get(_SIGTOOLS)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            return None
        paths = [os.path.join(d, "signal")
                 for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(_SIGTOOLS, paths)
        if spec is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_SIGTOOLS] = module
    return module


@functools.cache
def load_filter():
    """The recursion behind ``lfilter``, loaded once per process: scipy's
    compiled ``_linear_filter``, or scipy.signal.lfilter where that
    module cannot be located."""
    module = _sigtools()
    if module is None:
        from scipy.signal import lfilter as scipy_lfilter

        return scipy_lfilter
    return module._linear_filter


def lfilter(b, a, x, axis=-1):
    """scipy.signal.lfilter(b, a, x, axis), bit for bit.

    Takes scipy's two paths: a convolution when a has one coefficient,
    else the compiled recursion.
    """
    b, a, x = np.atleast_1d(b), np.atleast_1d(a), np.asarray(x)
    if len(a) != 1:
        return load_filter()(b, a, x, axis)
    dtype = np.result_type(b, a, x)
    b = np.array(b, dtype=dtype)
    b /= np.asarray(a, dtype=dtype)[0]
    full = np.apply_along_axis(lambda y: np.convolve(b, y), axis,
                               np.asarray(x, dtype=dtype))
    keep = [slice(None)] * full.ndim
    keep[axis] = slice(full.shape[axis] - len(b) + 1)
    return full[tuple(keep)]


def cho_factor(matrix):
    """Inverse of the lower Cholesky factor L of a symmetric matrix.

    L L' = matrix.  Raises numpy.linalg.LinAlgError when the matrix is
    not positive definite (NaN entries included).
    """
    return np.linalg.inv(np.linalg.cholesky(matrix))


def cho_solve(factor, rhs):
    """Solve matrix @ X = rhs given factor = cho_factor(matrix) = L^{-1}."""
    return factor.T @ (factor @ rhs)

"""Seeded random model generators shared by property-style tests."""

import numpy as np

from arstep import stationary_model, unit_root_model
from oracles import levels_from_stationary


def random_stable_coeffs(rng, max_p=4, radius=0.92):
    """Stable AR coefficients by rejection on the companion spectral radius.

    Returns a tuple of length 0..max_p whose companion matrix has
    spectral radius below `radius`, keeping a healthy margin from the
    package's own stability threshold.
    """
    while True:
        p = int(rng.integers(0, max_p + 1))
        if p == 0:
            return ()
        alpha = rng.uniform(-0.9, 0.9, p)
        if alpha[-1] == 0.0:
            continue
        comp = np.zeros((p, p))
        comp[:, 0] = alpha
        if p > 1:
            comp[np.arange(p - 1), np.arange(1, p)] = 1.0
        if np.max(np.abs(np.linalg.eigvals(comp))) < radius:
            return tuple(float(v) for v in alpha)


def sample_unit_root_models(count, seed, max_p=4):
    """Unit-root models with random stable factors and sigma2 in [0.25, 9]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = random_stable_coeffs(rng, max_p)
        sigma2 = float(rng.uniform(0.25, 9.0))
        out.append(unit_root_model(levels_from_stationary(alpha), sigma2))
    return out


def sample_stationary_models(count, seed, max_p=4):
    """Stable models (no unit root) with at least one lag."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        coeffs = random_stable_coeffs(rng, max_p)
        if not coeffs:
            continue
        sigma2 = float(rng.uniform(0.25, 9.0))
        out.append(stationary_model(coeffs, sigma2))
    return out


def stable_factor(real, pairs=()):
    """alpha_1..alpha_p of prod (1 - r z) over the real inverse roots and
    the conjugate pairs (radius, angle) given."""
    roots = list(real) + [radius * np.exp(sign * 1j * angle)
                          for radius, angle in pairs for sign in (1, -1)]
    if not roots:
        return ()
    return tuple(-float(c) for c in np.real(np.poly(roots))[1:])


#: Real inverse roots of stationary parts 1e-5 inside the unit circle.
NEAR_UNIT_ROOTS = ((0.99999, 0.5), (0.99999, 0.9, -0.5))


def unit_root_model_with_roots(roots):
    """Unit-root model, sigma2 = 1, whose stationary part has the given
    real inverse roots."""
    return unit_root_model(levels_from_stationary(stable_factor(roots)))

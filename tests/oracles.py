"""Independent reference implementations used to pin down expected values.

Everything here recomputes a quantity from first principles by a method
deliberately different from the package's own: symbolic substitution
instead of companion powers, textbook Gaussian elimination instead of
eigendecompositions, the companion-state Lyapunov equation instead of
the Yule-Walker equations, literal polynomial convolution, and
step-by-step forecast iteration.  Tests compare the package against these.
"""

import numpy as np


def substitution_coefficients(levels, h):
    """h-step projection coefficients by literal repeated substitution.

    Writes x_{t+h} symbolically as a combination of x's, then substitutes
    the recursion x_{t+s} = sum_i a_i x_{t+s-i} into the term with the
    largest future index until none remains.  Noise terms are dropped
    (they do not load on past observations).  Returns the coefficient
    vector on (x_t, x_{t-1}, ..., x_{t-m+1}) with m = len(levels).
    """
    m = len(levels)
    terms = {int(h): 1.0}
    while True:
        s = max(terms)
        if s <= 0:
            break
        weight = terms.pop(s)
        for i, coef in enumerate(levels, start=1):
            terms[s - i] = terms.get(s - i, 0.0) + weight * coef
    out = np.zeros(m)
    for offset, weight in terms.items():
        out[-offset] += weight
    return out


#: Reciprocal-condition threshold of the package's Gram gate.
GATE_RCOND = 1e-13


def gram_is_invertible(gram):
    """The condition gate on one Gram matrix, from its definition: the
    Gram is finite, its largest eigenvalue is positive, and its smallest
    exceeds GATE_RCOND times its largest."""
    gram = np.asarray(gram, dtype=float)
    if not np.isfinite(gram).all():
        return False
    evals = np.linalg.eigvalsh(gram)
    return bool(evals[-1] > 0.0 and evals[0] > GATE_RCOND * evals[-1])


def gaussian_elimination_solve(matrix, rhs):
    """Solve a linear system by Gaussian elimination with partial pivoting.

    Pure-Python row reduction, no numpy linear algebra involved.
    """
    a = [list(map(float, row)) for row in np.asarray(matrix)]
    b = [float(v) for v in np.asarray(rhs)]
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f == 0.0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return np.asarray(x)


def least_squares_by_elimination(design, target):
    """Least squares through the normal equations and row reduction."""
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    return gaussian_elimination_solve(design.T @ design, design.T @ target)


def lyapunov_autocovariances(coeffs, sigma2, L):
    """gamma(0..L) of a stable AR from the covariance of its state.

    The state X_t = (x_t, ..., x_{t-p+1})' follows X_t = A X_{t-1} +
    e_1 eps_t, A the companion matrix, so its covariance solves the
    Lyapunov equation Sigma = A Sigma A' + sigma2 e_1 e_1'.  Row-major
    vectorized that is the p^2-equation Kronecker system
    (I - A (x) A) vec(Sigma) = sigma2 vec(e_1 e_1'), solved by
    elimination.  Then Cov(X_{t+m}, X_t) = A^m Sigma, whose top-left
    entry is gamma(m).
    """
    p = len(coeffs)
    if p == 0:
        gamma = np.zeros(L + 1)
        gamma[0] = sigma2
        return gamma
    companion = np.zeros((p, p))
    companion[0] = [float(c) for c in coeffs]
    for i in range(1, p):
        companion[i, i - 1] = 1.0
    rhs = np.zeros(p * p)
    rhs[0] = sigma2
    state = gaussian_elimination_solve(
        np.eye(p * p) - np.kron(companion, companion), rhs).reshape(p, p)
    gamma = []
    for _ in range(L + 1):
        gamma.append(state[0, 0])
        state = companion @ state
    return np.asarray(gamma)


def polynomial_multiply(p, q):
    """Coefficient convolution; index equals power."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pa in enumerate(p):
        for j, qb in enumerate(q):
            out[i + j] += pa * qb
    return out


def levels_from_stationary(alpha):
    """Levels coefficients a_1..a_{p+1} of (1 - z) * (1 - alpha(z)).

    The inverse of unit-root deflation, built by literal polynomial
    multiplication.
    """
    stationary_poly = [1.0] + [-float(al) for al in alpha]
    prod = polynomial_multiply([1.0, -1.0], stationary_poly)
    return tuple(-c for c in prod[1:])


def iterated_forecast(series, coeffs, h):
    """h-step forecast by appending one-step forecasts one at a time."""
    buf = [float(v) for v in series]
    for _ in range(h):
        buf.append(sum(c * buf[-1 - i] for i, c in enumerate(coeffs)))
    return buf[-1]


def hand_impulse(levels, n):
    """Impulse response x_0..x_{n-1} by direct recursion."""
    x = []
    for t in range(n):
        value = 1.0 if t == 0 else 0.0
        for i, coef in enumerate(levels, start=1):
            if t - i >= 0:
                value += coef * x[t - i]
        x.append(value)
    return np.asarray(x)


class _Dual:
    """A number carrying its exact gradient (forward-mode differentiation).

    Supports the sums and products that forecast iteration performs, so
    passing duals as coefficients to iterated_forecast returns the
    forecast together with its gradient in those coefficients.
    """

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value + other.value,
                         [g + q for g, q in zip(self.grad, other.grad)])
        return _Dual(self.value + other, self.grad)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value * other.value,
                         [g * other.value + self.value * q
                          for g, q in zip(self.grad, other.grad)])
        return _Dual(self.value * other, [g * other for g in self.grad])

    __rmul__ = __mul__


def _trace_of_inverse_times(gram, matrix):
    """tr(gram^{-1} matrix), one elimination solve per column."""
    total = 0.0
    for col in range(len(matrix)):
        column = [row[col] for row in matrix]
        total += gaussian_elimination_solve(gram, column)[col]
    return total


def _direct_cost(alpha, w, dim):
    """Direct h-step cost on dim differences, h = len(w), unit noise variance.

    The regression scores e_{t+h} z_t, with e the MA(h-1) forecast error
    and z_t = (dx_t, ..., dx_{t-dim+1}), have long-run covariance
    Omega[a][b] = sum_{j,l<h} w_j w_l gamma(l - j + b - a); the cost is
    tr(G^{-1} Omega), G the autocovariance matrix of z_t.
    """
    h = len(w)
    gamma = lyapunov_autocovariances(alpha, 1.0, dim + h - 2)
    gram = [[gamma[abs(r - c)] for c in range(dim)] for r in range(dim)]
    omega = [[sum(w[j] * w[l] * gamma[abs(l - j + c - r)]
                  for j in range(h) for l in range(h))
              for c in range(dim)] for r in range(dim)]
    return _trace_of_inverse_times(gram, omega)


def _plugin_cost(alpha, h, dim):
    """Plug-in h-step cost on dim differences, unit noise variance.

    The plug-in forecast is x_t plus the h iterated one-step forecasts of
    the differences.  Its gradient in the difference coefficients is
    linear in z_t, D z_t; column a of D is the exact (dual-number)
    gradient at z_t = e_a.  A coefficient error of covariance G^{-1} / n
    then costs tr(G^{-1} D G D').
    """
    gamma = lyapunov_autocovariances(alpha, 1.0, dim)
    gram = [[gamma[abs(r - c)] for c in range(dim)] for r in range(dim)]
    padded = list(alpha) + [0.0] * (dim - len(alpha))
    coeffs = [_Dual(value, [1.0 if i == j else 0.0 for j in range(dim)])
              for i, value in enumerate(padded)]
    columns = []
    for a in range(dim):
        recent_first = [1.0 if i == a else 0.0 for i in range(dim)]
        total = sum(iterated_forecast(recent_first[::-1], coeffs, s)
                    for s in range(1, h + 1))
        columns.append(total.grad)
    # (D G D')[r][c] with D[r][m] = columns[m][r]
    dgd = [[sum(columns[m][r] * gram[m][q] * columns[q][c]
                for m in range(dim) for q in range(dim))
            for c in range(dim)] for r in range(dim)]
    return _trace_of_inverse_times(gram, dgd)


def trace_costs(alpha, gamma, w, dim):
    """(plug-in, direct) costs in dimension dim, unit noise variance.

    With G the dim x dim Toeplitz matrix of gamma, S the dim x dim
    companion matrix of alpha (truncated or zero-padded to dim) and
    h = len(w): plug-in tr(G M G^{-1} M'), M = sum_{j<h} w_j S^(h-1-j)
    by explicit matrix powers, and direct tr(G^{-1} V), V[r][c] =
    sum_{j,l<h} w_j w_l gamma(|j - l + c - r|).  Every inverse is an
    np.linalg.solve, one dimension at a time.
    """
    h = len(w)
    gram = np.array([[gamma[abs(r - c)] for c in range(dim)]
                     for r in range(dim)])
    companion = np.eye(dim, k=1)
    column = list(alpha)[:dim]
    companion[:len(column), 0] = column
    power_sum = sum(w[j] * np.linalg.matrix_power(companion, h - 1 - j)
                    for j in range(h))
    plugin = np.trace(gram @ power_sum
                      @ np.linalg.solve(gram, power_sum.T))
    omega = np.array([[sum(w[j] * w[l] * gamma[abs(j - l + c - r)]
                           for j in range(h) for l in range(h))
                       for c in range(dim)] for r in range(dim)])
    return float(plugin), float(np.trace(np.linalg.solve(gram, omega)))


def quartic_gap_oracle(a1):
    """Quartic-family three-step gap: direct order 3 minus plug-in order 4.

    The levels polynomial (1 - z)(1 + a1 z)(1 + a2 z^2), a2 = a1^2 - a1 + 1,
    is multiplied out literally with unit innovation variance.  A working
    order k uses the k - 1 differences beside the level, so the direct
    cost lives in dimension 2 and the plug-in cost in dimension 3.
    """
    h = 3
    a2 = a1 * a1 - a1 + 1.0
    stationary_poly = polynomial_multiply([1.0, a1], [1.0, 0.0, a2])
    alpha = [-c for c in stationary_poly[1:]]
    levels = [-c for c in polynomial_multiply([1.0, -1.0],
                                              stationary_poly)[1:]]
    w = hand_impulse(levels, h)
    return _direct_cost(alpha, w, 2) - _plugin_cost(alpha, h, 3)

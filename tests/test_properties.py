"""Property tests: the prefix and order gates, the APE start index, lag
matrices, plug-in powering and exact row sums against naive
constructions, on inputs drawn by hypothesis."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arstep as a
from arstep.estimation import (_lag_view, _normalized, _singular_grams,
                               _singular_orders, _singular_prefix, row_sums)
from arstep.model_core import _companion_image
from arstep.selection import _padded_grams, _shared_prefix, _suffix_sums
from arstep.theory_losses import _costs
from oracles import gram_is_invertible, levels_from_stationary
from sampling import stable_factor

# Bounded and derandomized, so the suite's runtime and outcome are fixed.
BOUNDED = settings(max_examples=50, deadline=None, derandomize=True,
                   database=None)

SHAPES = ("noise", "walk", "constant", "zero run", "zero start",
          "repeated rows", "integers")


def _shaped_series(shape, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n)
    if shape == "walk":
        return np.cumsum(noise)
    if shape == "constant":
        return np.full(n, noise[0])
    if shape in ("zero run", "zero start"):
        walk = np.cumsum(noise)
        start = 0 if shape == "zero start" else int(rng.integers(0, n))
        walk[start:start + int(rng.integers(1, n + 1))] = 0.0
        return walk
    if shape == "repeated rows":
        period = int(rng.integers(1, 5))
        return np.resize(noise[:period], n)
    if shape == "integers":
        return np.round(3.0 * noise)
    return noise


@BOUNDED
@given(shape=st.sampled_from(SHAPES), n=st.integers(2, 150),
       K=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from((1.0, 1e150, 1e-150)),
       base=st.integers(0, 20))
def test_prefix_gate_equals_batched_gate(shape, n, K, seed, scale, base):
    # Column k - 1 of the one mask is order k's gate: the batched gate of
    # every entry's trailing k x k block.  A period below K (repeated
    # rows) leaves order K singular where lower orders clear the gate.
    series = scale * _shaped_series(shape, n, seed)
    K = min(K, n - 1)
    grams = _shared_prefix(series, K)[1][base:]
    bad = _singular_prefix(grams)
    assert bad.shape == grams.shape[:2]
    for k in range(1, K + 1):
        assert bad[:, k - 1].tolist() == \
            _singular_grams(grams[:, K - k:, K - k:]).tolist()


def _order_grams(stack, K, last, orders):
    """The padded Grams of the ascending orders over the rows
    j = k..last, for a stack of series, as selection._criteria builds
    them."""
    series = _normalized(stack)[0]
    lags = _lag_view(series, K)
    ks = np.array(orders)
    inside = np.arange(K) < ks[:, None]
    return _padded_grams(_suffix_sums(lags, lags, last, K)[:, ks - 1], inside)


def _gate_series(shape, n, seed, noise):
    """_shaped_series, or a spike of 1e8 among the first values of
    noise, or sin(0.3 t) plus noise of the given size."""
    if shape == "early spike":
        series = _shaped_series("noise", n, seed)
        series[seed % min(n, 8)] = 1e8
        return series
    if shape == "sine":
        rng = np.random.default_rng(seed)
        return np.sin(0.3 * np.arange(n)) + noise * rng.normal(size=n)
    return _shaped_series(shape, n, seed)


@BOUNDED
@given(shapes=st.lists(st.sampled_from(SHAPES + ("early spike", "sine")),
                       min_size=1, max_size=3),
       n=st.integers(2, 150), K=st.integers(1, 8), h=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from((1e-9, 1e-7, 1e-6, 1e-4)), data=st.data())
def test_order_gate_equals_batched_gate(shapes, n, K, h, seed, noise, data):
    # Both stages of the criteria: the one-step Grams (rows j = k..n-1,
    # order K always fitted, so the anchor) and the direct window (rows
    # j = k..n-h, its anchor the largest order asked for).  The
    # certified mask equals the batched gate of every order's Gram.
    K = min(K, n // 2) or 1
    stack = np.array([_gate_series(shape, n, seed + r, noise)
                      for r, shape in enumerate(shapes)])
    orders = data.draw(st.sets(st.integers(1, K), min_size=1))
    for last, ks in ((n - 1, sorted(orders | {K})), (n - h, sorted(orders))):
        grams = _order_grams(stack, K, last, ks)
        assert _singular_orders(grams).tolist() == \
            _singular_grams(grams).tolist()


@pytest.mark.parametrize("noise, failing, matrices", [
    (1e-7, [3, 4, 5, 6], 1 + 5), (1e-6, [], 1)])
def test_order_gate_checks_what_it_cannot_certify(monkeypatch, noise,
                                                  failing, matrices):
    # sin(0.3 t) is an AR(2) recursion, so at noise 1e-7 the Grams of
    # orders 3-6 fail the gate, and order 6's minimum certifies no lower
    # order: orders 1 and 2 pass, yet only through eigvalsh.  At 1e-6
    # every order passes, certified by order 6's eigvalsh alone.
    seen = []
    real = np.linalg.eigvalsh

    def counted(grams):
        seen.append(int(np.prod(grams.shape[:-2])))
        return real(grams)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    n, K = 300, 6
    series = np.sin(0.3 * np.arange(n)) \
        + noise * np.random.default_rng(0).normal(size=n)
    grams = _order_grams(series[None], K, n - 1, range(1, K + 1))
    bad = _singular_orders(grams)[0]
    assert (np.flatnonzero(bad) + 1).tolist() == failing
    assert sum(seen) == matrices
    monkeypatch.undo()
    assert bad.tolist() == _singular_grams(grams)[0].tolist()


def _scanned_start_index(series, K, h):
    """min_start_index by a scan: the scalar gate on the two order-K
    prefix entries each sample end i reads, from i = 2K + h - 1 up."""
    grams = _shared_prefix(series, K)[1]
    for i in range(2 * K + h - 1, series.size - h + 1):
        if gram_is_invertible(grams[i - 1 - K]) \
                and gram_is_invertible(grams[i - h - K]):
            return i
    raise a.SeriesTooShort("no sample end clears the gate")


@BOUNDED
@given(K=st.integers(1, 5), h=st.integers(1, 4),
       lead=st.integers(0, 12), lead_value=st.sampled_from((0.0, 1.5)),
       spike_at=st.one_of(st.none(), st.integers(-9, 6)),
       tail=st.integers(-1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_start_index_equals_scalar_gate_scan(K, h, lead, lead_value,
                                             spike_at, tail, seed):
    # A zero or constant lead keeps the first Grams singular.  A spike
    # (x = 1e8 among unit-scale values) makes the K - 1 Grams whose rows
    # hold it in only some columns fail the gate: a singular stretch
    # after clear Grams.  The spike sits spike_at after the start index
    # i0 of the series without it, and the series ends tail sample ends
    # after i0, so both fall where the start index is read.
    rng = np.random.default_rng(seed)
    series = rng.normal(size=lead + 2 * K + 2 * h + 40)
    series[:lead] = lead_value
    i0 = _scanned_start_index(series, K, h)
    if spike_at is not None and i0 + spike_at >= 0:
        series[i0 + spike_at] = 1e8
    series = series[:i0 + h + tail]
    try:
        want = _scanned_start_index(series, K, h)
    except a.SeriesTooShort:
        with pytest.raises(a.SeriesTooShort):
            a.min_start_index(series, K, h)
    else:
        assert a.min_start_index(series, K, h) == want


@BOUNDED
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       data=st.data())
def test_lag_matrix_matches_naive_loop(values, data):
    n = len(values)
    k = data.draw(st.integers(1, min(n, 8)))
    first = data.draw(st.integers(k, n))
    last = data.draw(st.integers(first - 1, n))
    rows = a.lag_matrix(values, k, first, last)
    naive = [[values[j - 1 - l] for l in range(k)]
             for j in range(first, last + 1)]
    assert rows.shape == (max(last - first + 1, 0), k)
    assert rows.tolist() == naive


def _iterated_forecast(coeffs, tail, h):
    """h-step forecast by iterating the one-step recursion; tail is
    (x_t, x_{t-1}, ..., x_{t-k+1})."""
    window = list(tail)
    for _ in range(h):
        window.insert(0, sum(c * x for c, x in zip(coeffs, window)))
    return window[0]


@BOUNDED
@given(k=st.integers(1, 5), h=st.integers(1, 8), rows=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plug_in_powers_match_iterated_one_step_forecasts(k, h, rows, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (rows, k))
    tails = rng.normal(size=(rows, k))
    powered = _companion_image(coeffs, h)
    for a_row, tail, p_row in zip(coeffs, tails, powered):
        # Every intermediate forecast is at most this size, so rounding
        # stays a small multiple of eps times it.
        size = max(1.0, np.abs(a_row).sum()) ** h * np.abs(tail).max()
        assert float(p_row @ tail) == pytest.approx(
            _iterated_forecast(a_row, tail, h), rel=0, abs=1e-13 * size)


def _times_4_to_the(values, m):
    """{key: value * 4^m}, correctly rounded, inf past the float range."""
    with np.errstate(over="ignore"):
        return dict(zip(values, np.ldexp(list(values.values()),
                                         2 * m).tolist()))


@BOUNDED
@given(label=st.sampled_from(sorted(a.DGPS)), m=st.integers(-900, 900))
def test_fits_and_selections_scale_by_powers_of_two(label, m):
    # x -> 2^m x is exact on these series, so each output is the
    # unscaled one: picks, start indices and coefficients are equal, and
    # criteria, sums and mean squares are 4^m times the unscaled values
    # rounded once (0 or inf where that leaves the float range).
    dgp = a.DGPS[label]
    h, K = dgp.horizon, dgp.max_order
    series = a.generate(dgp, 150, a.replication_seed(0, dgp, 150, 0))
    scaled = np.ldexp(series, m)
    for select in (a.select_by_criterion, a.select_by_ape):
        ref, out = select(series, h, K), select(scaled, h, K)
        assert (out.k, out.method, out.orders, out.m_h) == \
            (ref.k, ref.method, ref.orders, ref.m_h)
        assert out.criteria == _times_4_to_the(ref.criteria, m)
        assert out.first_stage == _times_4_to_the(ref.first_stage, m)
    assert a.min_start_index(scaled, K, h) == a.min_start_index(series, K, h)
    fit = a.fit_direct(series, 2, h)
    assert a.fit_direct(scaled, 2, h) == fit
    unscaled = {"mse": a.residual_mse(series, fit, h, K),
                "ape": a.accumulated_prediction_error(series, 2, h,
                                                      a.PLUG_IN, K)}
    assert {"mse": a.residual_mse(scaled, fit, h, K),
            "ape": a.accumulated_prediction_error(scaled, 2, h, a.PLUG_IN,
                                                  K)} \
        == _times_4_to_the(unscaled, m)


def _rounded_exact_sum(row):
    """The exact sum of a row rounded to a float, +-inf past the range."""
    exact = sum(map(Fraction, row))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


# Entries of every sign and size: normal magnitudes over +-300 decades,
# subnormals, signed zeros, and anything finite (up to the largest float).
ENTRIES = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-10.0, 10.0), st.integers(-300, 300)),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from((0.0, -0.0)),
    st.floats(allow_nan=False, allow_infinity=False))


@BOUNDED
@given(rows=st.lists(st.lists(ENTRIES, max_size=40), min_size=1, max_size=6))
def test_row_sums_equal_fsum_row_by_row(rows):
    # Rows of different lengths are padded with zeros into one stack.
    stack = np.zeros((len(rows), max(map(len, rows))))
    for i, row in enumerate(rows):
        stack[i, :len(row)] = row
    for row, got in zip(rows, row_sums(stack)):
        assert not math.isnan(got)
        try:
            want = math.fsum(row)
        except OverflowError:  # a partial sum overflowed
            want = _rounded_exact_sum(row)
        assert got == want, row


# Rows whose exact sum lies near a tie of the sum of their two largest
# parts: base plus half the gap above it (a quarter, below a power of
# two), and a tail far below base that decides the rounding, or 0.
NEAR_TIES = st.builds(
    lambda base, below, tail, zeros: [base, (-0.25 if below else 0.5)
                                      * math.ulp(base), tail] + zeros,
    st.floats(1.0, 2.0, exclude_max=True)
    | st.sampled_from((1.0, 2.0 ** -900, 2.0 ** 500, 3.0 * 2.0 ** -1000)),
    st.booleans(),
    st.just(0.0) | st.builds(lambda sign, j: sign * 2.0 ** -j,
                             st.sampled_from((-1.0, 1.0)),
                             st.integers(54, 1074)),
    st.lists(st.sampled_from((0.0, -0.0)), max_size=3))
# Values and their negatives (in any order), and one leftover.
CANCELLING = st.tuples(
    st.lists(ENTRIES, min_size=1, max_size=8).flatmap(
        lambda values: st.permutations(values + [-v for v in values])),
    ENTRIES).map(lambda drawn: [*drawn[0], drawn[1]])
SUBNORMALS = st.lists(st.floats(-2.3e-308, 2.3e-308), min_size=1,
                      max_size=12)
ZEROS = st.lists(st.sampled_from((0.0, -0.0)), max_size=5)
# Entries that no sigma fits (row_sums sums such rows one by one).
HUGE = st.lists(st.floats(-1.7e308, 1.7e308) | st.sampled_from(
    (1e308, -1e308, 2.0 ** 1020, np.finfo(float).max)), min_size=1,
    max_size=5)


@BOUNDED
@given(rows=st.lists(st.one_of(NEAR_TIES, CANCELLING, SUBNORMALS, ZEROS,
                               HUGE, st.lists(ENTRIES, max_size=40)),
                     min_size=1, max_size=6),
       drops=st.lists(st.sampled_from((0, 0, 30, 200, 1100)), min_size=6,
                      max_size=6),
       big=st.booleans())
def test_row_sums_decide_hard_rows_as_fsum(rows, drops, big):
    # Each row may be scaled down by 2^-drop, and a row of 1.0s may join
    # the block, so that rows lie far below the block's max, where two
    # extraction levels leave their sums in the remainders.
    rows = [[math.ldexp(v, -drop) for v in row]
            for row, drop in zip(rows, drops)]
    if big:
        rows.append([1.0, 1.0])
    stack = np.zeros((len(rows), max(map(len, rows))))
    for i, row in enumerate(rows):
        stack[i, :len(row)] = row
    for row, got in zip(rows, row_sums(stack)):
        try:
            want = math.fsum(row)
        except OverflowError:  # a partial sum overflowed
            want = _rounded_exact_sum(row)
        assert got == want, row


def test_row_sums_at_the_edges():
    big = np.finfo(float).max
    rows = [[], [0.0, -0.0], [5e-324, -5e-324, 5e-324],
            [1e308, 1e308], [-1e308, -1e308], [1e308, 1e308, -1e308],
            [big, -big, 1e-300], [big, 2.0 ** 970]]
    stack = np.zeros((len(rows), 3))
    for i, row in enumerate(rows):
        stack[i, :len(row)] = row
    # fsum raises OverflowError on rows 3-5 and 7; row_sums rounds the
    # exact sum instead, to +-inf when it lies past the float range.
    assert row_sums(stack).tolist() == [0.0, 0.0, 5e-324, math.inf,
                                        -math.inf, 1e308, 1e-300, math.inf]
    assert row_sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    # Ties of the two leading parts, below a power of two (where the gap
    # is half the gap above), above it and away from it, broken by a
    # tail that two extraction levels leave in the remainders.
    ties = [[1.0, -2.0 ** -54, -2.0 ** -100], [1.0, -2.0 ** -54, 2.0 ** -100],
            [1.0, 2.0 ** -53, -2.0 ** -100], [1.5, 2.0 ** -53, 2.0 ** -100],
            [2.0 ** -900, -2.0 ** -954, -2.0 ** -1000]]
    assert row_sums(ties).tolist() == [math.fsum(row) for row in ties]
    # Long rows of one sign and full mantissas: partial sums reach their
    # largest size against the grid of the split.
    long_rows = np.random.default_rng(0).uniform(1.0, 2.0, (4, 4000))
    assert row_sums(long_rows).tolist() == [math.fsum(row)
                                            for row in long_rows.tolist()]
    # Non-finite entries sum as in np.sum.
    assert row_sums([[np.inf, 1.0], [np.inf, -np.inf]])[0] == math.inf
    assert math.isnan(row_sums([[np.inf, -np.inf]])[0])


@BOUNDED
@given(real=st.lists(st.floats(0.05, 0.9) | st.floats(-0.9, -0.05),
                     max_size=3),
       pairs=st.lists(st.tuples(st.floats(0.05, 0.9), st.floats(0.1, 3.0)),
                      max_size=2),
       unit_root=st.booleans(), sigma2=st.floats(0.25, 9.0),
       h=st.integers(1, 6), D=st.integers(1, 12))
def test_cost_pass_dimension_prefix_equals_the_pass_at_that_dimension(
        real, pairs, unit_root, sigma2, h, D):
    # Entry d of the pass at D is the pass at D = d, bit for bit: the
    # direct cost everywhere, the plug-in cost from the stationary order
    # up (below it the pass at d truncates the coefficients).
    alpha = stable_factor(real, pairs)
    if unit_root:
        model = a.UnitRootArModel(levels_from_stationary(alpha), sigma2)
    else:
        assume(alpha)
        model = a.StationaryArModel(alpha, sigma2)
    w = a.level_ma_weights(model, h - 1)
    plugin, direct = _costs(model, D, w)
    for d in range(1, D + 1):
        own_plugin, own_direct = _costs(model, d, w)
        assert direct[d - 1] == own_direct[-1]
        if d >= len(alpha):
            assert plugin[d - 1] == own_plugin[-1]


#: Model fields: mostly ordinary values (small coefficients give stable
#: models often), then zeros of both signs, the unit value, and values
#: no model may hold.
MODEL_FIELD = st.one_of(
    st.floats(-0.9, 0.9), st.floats(-2.5, 2.5),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf)))
SIGMA2 = st.one_of(
    st.floats(0.25, 9.0),
    st.floats(0.0, math.inf, exclude_min=True, exclude_max=True),
    st.sampled_from((5e-324, 1e-310, 1e308, 0.0, -0.0, -1.0, math.nan,
                     math.inf, -math.inf, "1")))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(MODEL_FIELD, max_size=5), unit_root=st.booleans(),
       factored=st.booleans(), sigma2=SIGMA2, h=st.integers(1, 6))
def test_hand_built_models_are_refused_or_give_finite_values(
        coeffs, unit_root, factored, sigma2, h):
    # A model built from any fields either is refused with a typed error
    # or gives values from every model function that are finite, or inf
    # where a variance exceeds the float range, but never NaN, and raise
    # no RuntimeWarning.  Multiplying the drawn coefficients by (1 - z)
    # makes many unit-root levels valid.
    try:
        if unit_root:
            levels = levels_from_stationary(coeffs) if factored else coeffs
            model = a.UnitRootArModel(levels, sigma2)
        else:
            model = a.StationaryArModel(coeffs, sigma2)
    except (a.ArstepError, ValueError, TypeError):
        return
    K = model.p + 2 if unit_root else model.p + 1  # above the levels order
    assert np.isfinite(a.direct_coefficients(model, h).coeffs).all()
    assert np.isfinite(a.level_ma_weights(model, h)).all()
    assert a.sigma_h_squared(model, h) > 0.0
    if unit_root:
        weights = a.ma_weights(model, h)
        assert np.isfinite(weights.c).all() and np.isfinite(weights.b).all()
    try:
        gamma = a.autocovariances(model, K).gamma
        table = a.loss_table(model, h, K)
    except a.SingularGamma:
        return
    assert not np.isnan(gamma).any() and gamma[0] > 0.0
    # +inf below a method's minimal order, which K exceeds; NaN fails.
    assert all(entry.value >= 0.0 for entry in table.values())
    if model.sigma2 <= 1e6:
        assert math.isfinite(table[K, a.PLUG_IN].value)
        assert math.isfinite(table[K, a.DIRECT].value)

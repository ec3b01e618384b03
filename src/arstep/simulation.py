"""Monte Carlo harness: data generators, frequency tables, MSPE estimates.

The registry DGPS holds ten benchmark autoregressions (four stationary,
six with a unit root) used to exercise the selection procedures.  All of
them use innovation variance 25 by default.

Reproducibility contract: every replication draws its innovations from a
child of numpy's SeedSequence spawned with a key that identifies the
generator, sample size, and replication index.  Results are therefore
independent of execution order, of the number of worker processes, and
of how a cell's replications are split into the blocks evaluated
together.
"""

import math
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import lfilter, load_filter
from .errors import ArstepError, SeriesTooShort
from .estimation import _gated_solve, row_sums
from .model_core import (PLUG_IN, StationaryArModel, UnitRootArModel,
                         _companion_image, _count, _unscaled,
                         impulse_response)
from .selection import (PENALTY_PRESETS, PenaltyWeight, _criteria, _outcome,
                        select_by_ape)

#: Replications per partial sum of estimate_mspe: each block's sums are
#: correctly rounded, then the blocks' sums are added.  Part of the
#: determinism contract because it fixes that grouping.  It does not
#: touch the draws: the stream is drawn row-major in replication order,
#: however the replications are grouped.
_MSPE_BATCH = 4096

#: Working memory of one estimate_mspe chunk, in bytes: the replications
#: are simulated and fitted in chunks of as many rows as fit in it.
#: Three chunk-sized arrays are in flight at once: two innovation buffers
#: (one filled by the draw thread while the other is fitted) and the
#: filtered chunk.  At 1 MiB the three fit a 4 MiB L2 cache per core.
#: Results do not depend on it.
_MSPE_CHUNK_BYTES = 1 << 20

#: Replications per block of run_frequency_experiment (fewer when a
#: pool needs more blocks).  Tables do not depend on it: each
#: replication's criteria from a block equal those of its series alone.
_BLOCK_REPS = 32


@dataclass(frozen=True)
class DgpSpec:
    """A benchmark data-generating process.

    levels holds the AR coefficients of the levels recursion
    x_t = a_1 x_{t-1} + ... + a_m x_{t-m} + eps_t; unit_root says whether
    the characteristic polynomial has the unit root factored in; horizon
    and max_order are the forecast horizon and candidate-order cap the
    benchmark is run with.

    Building one, also by dataclasses.replace but not by unpickling,
    checks it: its levels must make a model of its kind at sigma2 = 1
    (model_for's errors), sigma2 must be finite and nonnegative (0 is
    legal), and horizon and max_order integers of at least 1, else
    ValueError.
    """

    id: str
    levels: tuple
    unit_root: bool
    horizon: int
    max_order: int
    sigma2: float = 25.0

    def __post_init__(self):
        (UnitRootArModel if self.unit_root else StationaryArModel)(
            self.levels)
        if not 0.0 <= self.sigma2 < math.inf:  # NaN fails too
            raise ValueError("sigma2 must be finite and nonnegative, not %r"
                             % self.sigma2)
        _count("horizon", self.horizon, 1)
        _count("max_order", self.max_order, 1)


DGPS = {
    "I": DgpSpec("I", (0.0, -0.8), False, 2, 10),
    "II": DgpSpec("II", (0.3, -0.8), False, 2, 10),
    "III": DgpSpec("III", (0.0, 0.2, 0.8), True, 2, 10),
    "IV": DgpSpec("IV", (0.3, -0.1, 0.8), True, 2, 10),
    "V": DgpSpec("V", (0.9, -0.81), False, 3, 10),
    "VI": DgpSpec("VI", (0.6, -0.36), False, 3, 10),
    "VII": DgpSpec("VII", (0.9, -0.81, 0.91), True, 3, 10),
    "VIII": DgpSpec("VIII", (0.9, -0.56, 0.66), True, 3, 10),
    "IX": DgpSpec("IX", (0.0,) * 9 + (0.2, 0.8), True, 10, 20),
    "X": DgpSpec("X", (1.5, -0.5), True, 10, 20),
}


def model_for(dgp):
    """Exact model object (with validation) behind a DgpSpec."""
    if dgp.unit_root:
        return UnitRootArModel(dgp.levels, dgp.sigma2)
    return StationaryArModel(dgp.levels, dgp.sigma2)


def _dgp_key(dgp_id):
    """Stable integer identifying a generator in seed spawn keys."""
    ids = list(DGPS)
    if dgp_id in DGPS:
        return ids.index(dgp_id) + 1
    return zlib.crc32(dgp_id.encode("utf8"))


def replication_seed(master, dgp, n, r):
    """SeedSequence for replication r of (dgp, n) under a master seed.

    The spawn key (generator, n, r) makes streams unique per replication
    and independent of how work is scheduled; n and r must be integers
    (not bools) of at least 0.
    """
    dgp_id = dgp.id if isinstance(dgp, DgpSpec) else str(dgp)
    key = (_dgp_key(dgp_id), _count("n", n, 0), _count("r", r, 0))
    return np.random.SeedSequence(int(master), spawn_key=key)


def generate(dgp, n, seed=None, noise="normal", burn_in=0, impulse=None,
             return_innovations=False):
    """Simulate x_1..x_n from a DgpSpec with zero pre-sample values.

    Parameters
    ----------
    dgp : DgpSpec
        Checked when it was built, so generate checks only n and
        burn_in.
    n : int
        Length of the returned series, an integer (not a bool) of at
        least 1.
    seed : int, SeedSequence, Generator, optional
        Anything numpy's default_rng accepts.  Equal seeds give equal
        series.
    noise : {"normal", "uniform"}
        Innovation family; "uniform" draws from the centered uniform law
        with the same variance.
    burn_in : int
        Extra leading observations simulated and discarded, an integer
        (not a bool) of at least 0.
    impulse : float, optional
        Added to the first innovation of the *returned* window; with
        sigma2 = 0 this exposes the deterministic impulse response.
    return_innovations : bool
        Also return the innovations aligned with the returned series.
    """
    n, burn_in = _count("n", n, 1), _count("burn_in", burn_in, 0)
    levels = np.asarray(dgp.levels, dtype=float)
    rng = np.random.default_rng(seed)
    total = n + burn_in
    if noise == "normal":
        eps = rng.standard_normal(total) * math.sqrt(dgp.sigma2)
    elif noise == "uniform":
        half = math.sqrt(3.0 * dgp.sigma2)
        eps = rng.uniform(-half, half, total)
    else:
        raise ValueError("noise must be 'normal' or 'uniform'")
    if impulse is not None:
        eps[burn_in] += float(impulse)
    series = lfilter(np.concatenate(([1.0], -levels)), eps)
    if return_innovations:
        return series[burn_in:], eps[burn_in:]
    return series[burn_in:]


def _normalize_procedures(procedures):
    """Coerce a procedures argument into ((label, weight), ...).

    Accepts preset labels ("A"/"B"/"C" for the penalized criteria, "I"
    for the sequential prediction-error procedure), a mapping from label
    to weight, or (label, weight) pairs, where a weight is a
    PenaltyWeight or None for the sequential procedure.  Raises
    ValueError for an unknown preset label or any other weight.
    """
    if procedures is None:
        procedures = ("B",)
    if isinstance(procedures, dict):
        procedures = procedures.items()
    out = []
    for entry in procedures:
        if isinstance(entry, str):
            if entry != "I" and entry not in PENALTY_PRESETS:
                raise ValueError("unknown procedure label %r" % entry)
            entry = (entry, PENALTY_PRESETS.get(entry))
        label, weight = entry
        if weight is not None and not isinstance(weight, PenaltyWeight):
            raise ValueError("procedure %r: weight must be a PenaltyWeight "
                             "or None, not %r" % (label, weight))
        out.append((str(label), weight))
    return tuple(out)


def _run_block(task):
    """Every procedure on a block of replications of one (dgp, n) cell.

    Module-level so process pools can pickle it.  Returns one tally per
    procedure label, {outcome: count}, where an outcome is the selected
    (order, method) or the class name of the ArstepError the procedure
    raised on that series (singular designs and the like).  The
    penalized procedures are evaluated on the whole block by one stacked
    _criteria call; when it raises, they are evaluated again one
    replication at a time, so each failure is charged to its own
    replication.
    """
    dgp, n, reps, master, K, procedures = task
    stack = np.array([generate(dgp, n, replication_seed(master, dgp, n, r))
                      for r in reps])
    h, cap = dgp.horizon, dgp.max_order if K is None else K
    tallies = {label: Counter(_attempt(select_by_ape, series, h, cap)
                              for series in stack if weight is None)
               for label, weight in procedures}
    penalized = {label: w for label, w in procedures if w is not None}
    if not penalized:
        return tallies

    def stages(series):
        """Per series of a stack, the stages of every penalty."""
        return list(zip(*_criteria(series, h, cap, penalized.values())))

    try:
        block = stages(stack)
    except ArstepError:
        block = None
    for r in range(len(stack)):
        try:
            picks = stages(stack[r:r + 1])[0] if block is None else block[r]
        except ArstepError as exc:
            outcomes = [type(exc).__name__] * len(penalized)
        else:
            outcomes = [_attempt(_outcome, *pick) for pick in picks]
        for label, outcome in zip(penalized, outcomes):
            tallies[label][outcome] += 1
    return tallies


def _attempt(select, *args):
    """(order, method) of a selection, or the class name of the
    ArstepError it raised."""
    try:
        outcome = select(*args)
    except ArstepError as exc:
        return type(exc).__name__
    return outcome.k, outcome.method


@dataclass
class FrequencyTable:
    """Selection counts per (generator, sample size, procedure).

    rows maps (dgp_id, n, label) to a dict {(order, method): count};
    failure_reasons maps the same keys to a dict {exception class name:
    count} of the replications that raised instead of selecting.  For
    every key, counts plus failures add up to the number of
    replications.
    """

    rows: dict
    replications: int
    failure_reasons: dict = field(default_factory=dict)

    @property
    def failures(self):
        """Failed replications per key: the sum of its failure_reasons."""
        return {key: sum(reasons.values())
                for key, reasons in self.failure_reasons.items()}

    def counts(self, dgp_id, n, label):
        return dict(self.rows[(dgp_id, int(n), label)])

    def frequency(self, dgp_id, n, label, k, method):
        """Share of replications selecting (k, method)."""
        cell = self.rows.get((dgp_id, int(n), label), {})
        return cell.get((int(k), method), 0) / self.replications

    def to_records(self):
        """Long-format rows; failed replications get method='failed'."""
        records, failures = [], self.failures
        for key, cell in self.rows.items():
            dgp_id, n, label = key
            for (k, method), count in sorted(cell.items()):
                records.append({"dgp": dgp_id, "n": n, "procedure": label,
                                "order": k, "method": method,
                                "count": count,
                                "frequency": count / self.replications})
            failed = failures.get(key, 0)
            if failed:
                records.append({"dgp": dgp_id, "n": n, "procedure": label,
                                "order": "", "method": "failed",
                                "count": failed,
                                "frequency": failed / self.replications})
        return records

    def format_text(self):
        lines = ["%d replications" % self.replications]
        for key, cell in self.rows.items():
            dgp_id, n, label = key
            reasons = sorted(self.failure_reasons.get(key, {}).items())
            lines.append("DGP %s  n=%d  procedure=%s  failures=%d%s"
                         % (dgp_id, n, label,
                            sum(count for _, count in reasons),
                            "".join("  %s=%d" % kv for kv in reasons)))
            ordered = sorted(cell.items(), key=lambda kv: (-kv[1], kv[0]))
            for (k, method), count in ordered:
                lines.append("    k=%-3d %-8s %6d  %.3f"
                             % (k, method, count,
                                count / self.replications))
        return "\n".join(lines)


def run_frequency_experiment(dgps, ns, procedures=None, R=200, K=None,
                             seed=0, workers=None):
    """Tabulate selection outcomes over a grid of generators and sizes.

    Every replication simulates one series (shared by all procedures, so
    the comparison uses common random numbers) and records what each
    procedure selected.  Each (dgp id, n, procedure label) cell is keyed
    once, before any replication runs; a key listed twice raises
    ValueError.  A cell's replications are evaluated in blocks of up to
    _BLOCK_REPS, each returning one tally per label (see _run_block);
    with workers > 1 the blocks, made small enough to give every worker
    one, run in a process pool.  A table is those tallies summed, and a
    block's tally equals that of its replications one by one, so tables
    are identical for any worker count and block split.

    Parameters
    ----------
    dgps : iterable of DgpSpec or registry labels
        Each checked when it was built.
    ns : iterable of int
        Sample sizes, each an integer (not a bool) of at least 1.
    procedures : see _normalize_procedures; defaults to preset "B".
    R : int
        Replications per (dgp, n) cell, an integer (not a bool) of at
        least 1.
    K : int, optional
        Candidate-order cap, such an integer; defaults to each
        generator's max_order.
    seed : int
        Master seed.
    workers : int, optional
        Process count; None or 1 runs serially, and below 1 is a
        ValueError.
    """
    dgps = [DGPS[d] if isinstance(d, str) else d for d in dgps]
    ns = [_count("n", n, 1) for n in ns]
    procedures = _normalize_procedures(procedures)
    R = _count("R", R, 1)
    K = K if K is None else _count("K", K, 1)
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1, not %r" % workers)
    tallies = {}
    for key in [(dgp.id, n, label)
                for dgp in dgps for n in ns for label, _ in procedures]:
        if key in tallies:
            raise ValueError("cell (dgp %r, n=%d, procedure %r) is listed "
                             "more than once" % key)
        tallies[key] = Counter()
    parallel = workers is not None and workers > 1
    size = min(_BLOCK_REPS, -(-R // workers)) if parallel else _BLOCK_REPS
    tasks = [(dgp, n, range(start, min(start + size, R)), int(seed), K,
              procedures)
             for dgp in dgps for n in ns for start in range(0, R, size)]
    if parallel:
        # Imported here: multiprocessing adds 11-15 ms to import arstep.
        from concurrent.futures import ProcessPoolExecutor

        # Load the filter once here; forked workers inherit it instead of
        # each loading it on its first block.
        load_filter()
        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, tasks, chunksize=chunk))
    else:
        results = [_run_block(t) for t in tasks]
    for (dgp, n, *_), block in zip(tasks, results):
        for label, tally in block.items():
            tallies[(dgp.id, n, label)].update(tally)
    rows, reasons = {}, {}
    for key, tally in tallies.items():
        rows[key] = {o: c for o, c in tally.items() if not isinstance(o, str)}
        reasons[key] = {o: c for o, c in tally.items() if isinstance(o, str)}
    return FrequencyTable(rows=rows, replications=R, failure_reasons=reasons)


@dataclass(frozen=True)
class MspeEstimate:
    """Monte Carlo estimate of an h-step mean squared prediction error.

    scaled_excess estimates n * (MSPE - sigma_h^2) using the exact
    control variate: with u the prediction error plus the future noise
    it cannot predict, MSPE = E[u^2] + sigma_h^2 holds exactly, so the
    excess is estimated from u alone with far smaller variance.
    """

    mspe: float
    se: float
    scaled_excess: float
    scaled_excess_se: float
    replications: int
    sigma_h2: float


def estimate_mspe(dgp, spec, n, R, seed=0):
    """Estimate the h-step MSPE of one fixed predictor by simulation.

    Parameters
    ----------
    dgp : DgpSpec
    spec : PredictorSpec
        Order k, method, and horizon h of the predictor; it is refitted
        on each simulated series of length n, and x_{n+h} is forecast.
        Both spec and dgp were checked when they were built.
    n : int
        Estimation sample length, an integer (not a bool) long enough
        for the fit (SeriesTooShort otherwise).
    R : int
        Number of replications, an integer (not a bool) of at least 2.
    seed : int
        Master seed.  One innovation stream is drawn row-major, n + h
        values per replication in replication order, so results depend
        only on seed and R.  The replications are simulated and fitted
        in chunks of _MSPE_CHUNK_BYTES while one helper thread draws the
        next chunk, in stream order: three chunk-sized arrays are in
        flight, two innovation buffers and the filtered chunk.  Memory
        grows neither with R nor with _MSPE_BATCH, whose blocks only
        group the partial sums.

    The series are simulated in units of 2^s, s the math.frexp exponent
    of sqrt(sigma2), so no square or fourth power overflows or
    underflows; the fields are reported at the dgp's scale (_unscaled),
    inf where they overflow and 0 where they underflow.
    """
    k, h, method = spec.k, spec.h, spec.method
    if method == PLUG_IN:
        if n < 2 * k:
            raise SeriesTooShort("plug-in fit needs n >= 2k")
    elif n - h < 2 * k - 1:
        raise SeriesTooShort("direct fit needs n - h >= 2k - 1")
    n, R = _count("n", n, 1), _count("R", R, 2)
    levels = np.asarray(dgp.levels, dtype=float)
    w = impulse_response(levels, h - 1)
    scale, s = math.frexp(math.sqrt(dgp.sigma2))
    rng = np.random.default_rng(int(seed))
    filt = np.concatenate(([1.0], -levels))
    # Chunks of at most `rows` replications, never across a block of
    # _MSPE_BATCH, in stream order.
    rows = max(1, min(R, _MSPE_BATCH, _MSPE_CHUNK_BYTES // (8 * (n + h))))
    chunks = [(start, min(start + rows, block + _MSPE_BATCH, R))
              for block in range(0, R, _MSPE_BATCH)
              for start in range(block, min(block + _MSPE_BATCH, R), rows)]
    buffers = [np.empty((rows, n + h)) for _ in range(2)]
    ahead = n + h - 1 - np.arange(h)  # eps_{n+h}, ..., eps_{n+1}
    size = min(R, _MSPE_BATCH)
    err, future = np.empty(size), np.empty((size, h))  # of one block
    block_sums = []
    with ThreadPoolExecutor(1) as pool:

        def draw(chunk):
            start, stop = chunks[chunk]
            return pool.submit(_draw_innovations, rng, scale,
                               buffers[chunk % 2][:stop - start])

        pending = draw(0)
        for chunk, (start, stop) in enumerate(chunks):
            eps = pending.result()
            if chunk + 1 < len(chunks):
                pending = draw(chunk + 1)
            at = start % _MSPE_BATCH
            end = at + stop - start
            err[at:end] = _prediction_errors(eps, start, k, h, method, filt)
            future[at:end] = eps[:, ahead]
            if end == _MSPE_BATCH or stop == R:
                block_sums.append(_block_sums(err[:end], future[:end], w))
    mean_err2, mean_err4, mean_u2, mean_u4 = (math.fsum(sums) / R
                                              for sums in zip(*block_sums))
    var_err2 = max(mean_err4 - mean_err2 ** 2, 0.0)
    var_u2 = max(mean_u4 - mean_u2 ** 2, 0.0)
    mspe, se, excess, excess_se, sigma_h2 = _unscaled(
        [mean_err2, math.sqrt(var_err2 / R), n * mean_u2,
         n * math.sqrt(var_u2 / R),
         math.ldexp(dgp.sigma2, -2 * s) * np.dot(w, w)], 2 * s).tolist()
    return MspeEstimate(mspe=mspe, se=se, scaled_excess=excess,
                        scaled_excess_se=excess_se, replications=int(R),
                        sigma_h2=sigma_h2)


def _block_sums(err, future, w):
    """Correctly rounded sums of err^2, err^4, u^2 and u^4 over a block of
    replications, u = err + eta with eta = future @ w, the part of
    x_{n+h} no predictor at n can see.

    eta is a multiply-add over the h columns of future, in column
    order, so each row's rounding depends neither on the layout of future
    nor on the rows beside it (a BLAS product's may).
    """
    eta = future[:, 0] * w[0]
    for j in range(1, len(w)):
        eta += future[:, j] * w[j]
    u = err + eta
    err2, u2 = err * err, u * u
    return row_sums([err2, err2 * err2, u2, u2 * u2]).tolist()


def _draw_innovations(rng, scale, out):
    """Fill out with the stream's next normals, row-major, times scale."""
    rng.standard_normal(out=out)
    out *= scale
    return out


def _prediction_errors(eps, first, k, h, method, filt):
    """h-step prediction errors of a chunk of replications, one row of
    n + h innovations each.

    Each row is filtered into x_1..x_{n+h}, the predictor is fitted on
    x_1..x_n, and its forecast of x_{n+h} less x_{n+h} is the row's
    error.  first is the index of the chunk's first replication, for
    error messages.
    """
    n = eps.shape[1] - h
    lag = 1 if method == PLUG_IN else h  # the fit regresses x_{j+lag}
    x = lfilter(filt, eps, axis=1)
    windows = sliding_window_view(x[:, :n], k, axis=1)[:, :, ::-1]
    design = windows[:, :n - lag - k + 1, :]
    target = x[:, k + lag - 1:n]
    gram = np.einsum("bjk,bjl->bkl", design, design)
    cross = np.einsum("bjk,bj->bk", design, target)
    coeffs = _gated_solve(gram, cross[:, :, None], lambda j: (
        "singular design in replication %d" % (first + j)))[:, :, 0]
    if method == PLUG_IN:
        coeffs = _companion_image(coeffs, h)
    tails = windows[:, n - k, :]
    return np.einsum("bk,bk->b", coeffs, tails) - x[:, n + h - 1]

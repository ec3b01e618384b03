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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import lfilter, load_filter
from .errors import ArstepError, SeriesTooShort
from .estimation import _gated_solve, _plug_in_powers, row_sums
from .model_core import (DIRECT, PLUG_IN, _check_stable, deflate_unit_root,
                         impulse_response, stationary_model, unit_root_model)
from .selection import (PENALTY_PRESETS, PenaltyWeight, _criteria, _outcome,
                        select_by_ape)

#: Replications per internal vectorized block of estimate_mspe.  Part of
#: the determinism contract: the innovation stream is consumed in blocks
#: of this size, so changing it would change individual draws.
_MSPE_BATCH = 4096

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
    """

    id: str
    levels: tuple
    unit_root: bool
    horizon: int
    max_order: int
    sigma2: float = 25.0


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
        return unit_root_model(dgp.levels, dgp.sigma2)
    return stationary_model(dgp.levels, dgp.sigma2)


def _check_levels(dgp):
    """Raise NotUnitRoot or UnstableStationaryPart when a spec's levels
    do not match its unit_root flag (sigma2 is not checked: 0 is legal).
    Cached per distinct levels and flag, so a replication pays a lookup."""
    _levels_error(tuple(dgp.levels), bool(dgp.unit_root))


@lru_cache(maxsize=None)
def _levels_error(levels, unit_root):
    if unit_root:
        deflate_unit_root(levels)
    else:
        _check_stable(levels, "levels")


def _dgp_key(dgp_id):
    """Stable integer identifying a generator in seed spawn keys."""
    ids = list(DGPS)
    if dgp_id in DGPS:
        return ids.index(dgp_id) + 1
    return zlib.crc32(dgp_id.encode("utf8"))


def replication_seed(master, dgp, n, r):
    """SeedSequence for replication r of (dgp, n) under a master seed.

    The spawn key (generator, n, r) makes streams unique per replication
    and independent of how work is scheduled.
    """
    dgp_id = dgp.id if isinstance(dgp, DgpSpec) else str(dgp)
    return np.random.SeedSequence(int(master),
                                  spawn_key=(_dgp_key(dgp_id), int(n),
                                             int(r)))


def generate(dgp, n, seed=None, noise="normal", burn_in=0, impulse=None,
             return_innovations=False):
    """Simulate x_1..x_n from a DgpSpec with zero pre-sample values.

    Parameters
    ----------
    dgp : DgpSpec
    n : int
        Length of the returned series.
    seed : int, SeedSequence, Generator, optional
        Anything numpy's default_rng accepts.  Equal seeds give equal
        series.
    noise : {"normal", "uniform"}
        Innovation family; "uniform" draws from the centered uniform law
        with the same variance.
    burn_in : int
        Extra leading observations simulated and discarded.
    impulse : float, optional
        Added to the first innovation of the *returned* window; with
        sigma2 = 0 this exposes the deterministic impulse response.
    return_innovations : bool
        Also return the innovations aligned with the returned series.
    """
    if n < 1 or burn_in < 0:
        raise ValueError("need n >= 1 and burn_in >= 0")
    _check_levels(dgp)
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
    series = lfilter([1.0], np.concatenate(([1.0], -levels)), eps)
    if return_innovations:
        return series[burn_in:], eps[burn_in:]
    return series[burn_in:]


def _normalize_procedures(procedures):
    """Coerce a procedures argument into ((label, kind, multiplier), ...).

    Accepts preset labels ("A"/"B"/"C" for the penalized criteria, "I"
    for the sequential prediction-error procedure), a mapping from label
    to PenaltyWeight, or (label, PenaltyWeight) pairs.
    """
    if procedures is None:
        procedures = ("B",)
    if isinstance(procedures, dict):
        items = procedures.items()
    else:
        items = []
        for entry in procedures:
            if isinstance(entry, str):
                if entry == "I":
                    items.append(("I", None))
                elif entry in PENALTY_PRESETS:
                    items.append((entry, PENALTY_PRESETS[entry]))
                else:
                    raise ValueError("unknown procedure label %r" % entry)
            else:
                items.append(tuple(entry))
        items = tuple(items)
    out = []
    for label, weight in items:
        if weight is None:
            out.append((str(label), "ape", None))
        else:
            out.append((str(label), "criterion", float(weight.multiplier)))
    return tuple(out)


def _run_block(task):
    """Every procedure on a block of replications of one (dgp, n) cell.

    Module-level so process pools can pickle it.  Returns, per
    replication, a dict mapping procedure label to (order, method), or to
    the exception class name when that procedure failed on that series
    (singular designs and the like).  The penalized procedures are
    evaluated on the whole block by one stacked _criteria call; when it
    raises, they are evaluated again one replication at a time, so each
    failure is charged to its own replication.
    """
    dgp, n, reps, master, K, procedures = task
    stack = np.array([generate(dgp, n, replication_seed(master, dgp, n, r))
                      for r in reps])
    h, cap = dgp.horizon, dgp.max_order if K is None else K
    results = [{} for _ in reps]
    for label, kind, _ in procedures:
        if kind == "ape":
            for res, series in zip(results, stack):
                res[label] = _attempt(select_by_ape, series, h, cap)
    penalized = [(label, PenaltyWeight(multiplier))
                 for label, kind, multiplier in procedures
                 if kind == "criterion"]
    if not penalized:
        return results
    labels, penalties = zip(*penalized)

    def criteria(series):
        return _criteria(series, h, cap, penalties, range(1, cap + 1),
                         (DIRECT, PLUG_IN))

    try:
        block = criteria(stack)
    except ArstepError:
        block = None
    for r, res in enumerate(results):
        if block is not None:
            picks = [per_series[r] for per_series in block]
        else:
            try:
                picks = [one[0] for one in criteria(stack[r:r + 1])]
            except ArstepError as exc:
                res.update(dict.fromkeys(labels, type(exc).__name__))
                continue
        for label, stages in zip(labels, picks):
            res[label] = _attempt(_outcome, *stages, None)
    return results


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
    failures maps the same keys to the number of replications that raised
    instead of selecting, and failure_reasons to a dict {exception class
    name: count} of those replications.  For every key, counts plus
    failures add up to the number of replications.
    """

    rows: dict
    replications: int
    failures: dict = field(default_factory=dict)
    failure_reasons: dict = field(default_factory=dict)

    def counts(self, dgp_id, n, label):
        return dict(self.rows[(dgp_id, int(n), label)])

    def frequency(self, dgp_id, n, label, k, method):
        """Share of replications selecting (k, method)."""
        cell = self.rows.get((dgp_id, int(n), label), {})
        return cell.get((int(k), method), 0) / self.replications

    def to_records(self):
        """Long-format rows; failed replications get method='failed'."""
        records = []
        for key, cell in self.rows.items():
            dgp_id, n, label = key
            for (k, method), count in sorted(cell.items()):
                records.append({"dgp": dgp_id, "n": n, "procedure": label,
                                "order": k, "method": method,
                                "count": count,
                                "frequency": count / self.replications})
            failed = self.failures.get(key, 0)
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
            failed = self.failures.get(key, 0)
            reasons = sorted(self.failure_reasons.get(key, {}).items())
            lines.append("DGP %s  n=%d  procedure=%s  failures=%d%s"
                         % (dgp_id, n, label, failed,
                            "".join("  %s=%d" % kv for kv in reasons)))
            ordered = sorted(cell.items(), key=lambda kv: (-kv[1], kv[0]))
            for (k, method), count in ordered:
                lines.append("    k=%-3d %-8s %6d  %.3f"
                             % (k, method, count,
                                count / self.replications))
        return "\n".join(lines)

    def to_csv(self, fileobj):
        import csv

        writer = csv.DictWriter(fileobj, fieldnames=[
            "dgp", "n", "procedure", "order", "method", "count",
            "frequency"])
        writer.writeheader()
        for record in self.to_records():
            writer.writerow(record)


def run_frequency_experiment(dgps, ns, procedures=None, R=200, K=None,
                             seed=0, workers=None):
    """Tabulate selection outcomes over a grid of generators and sizes.

    Every replication simulates one series (shared by all procedures, so
    the comparison uses common random numbers) and records what each
    procedure selected.  A cell's replications are evaluated in blocks
    of up to _BLOCK_REPS (see _run_block); with workers > 1 the blocks,
    made small enough to give every worker one, run in a process pool.
    The merge order is fixed by the task list and a block's results equal
    those of its replications one by one, so tables are identical for any
    worker count and block split.

    Parameters
    ----------
    dgps : iterable of DgpSpec or registry labels
    ns : iterable of int
    procedures : see _normalize_procedures; defaults to preset "B".
    R : int
        Replications per (dgp, n) cell.
    K : int, optional
        Candidate-order cap; defaults to each generator's max_order.
    seed : int
        Master seed.
    workers : int, optional
        Process count; None or 1 runs serially.
    """
    dgps = [DGPS[d] if isinstance(d, str) else d for d in dgps]
    for dgp in dgps:
        _check_levels(dgp)
    ns = [int(n) for n in ns]
    procedures = _normalize_procedures(procedures)
    if R < 1:
        raise ValueError("R must be at least 1")
    parallel = workers is not None and workers > 1
    size = min(_BLOCK_REPS, -(-R // workers)) if parallel else _BLOCK_REPS
    tasks = [(dgp, n, range(start, min(start + size, R)), int(seed), K,
              procedures)
             for dgp in dgps for n in ns for start in range(0, R, size)]
    if parallel:
        # Load the filter once here; forked workers inherit it instead of
        # each loading it on its first block.
        load_filter()
        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, tasks, chunksize=chunk))
    else:
        results = [_run_block(t) for t in tasks]
    rows, failures, reasons = {}, {}, {}
    for dgp in dgps:
        for n in ns:
            for label, _, _ in procedures:
                rows[(dgp.id, n, label)] = {}
                failures[(dgp.id, n, label)] = 0
                reasons[(dgp.id, n, label)] = {}
    for (dgp, n, *_), outcomes in zip(tasks, results):
        for outcome in outcomes:
            for label, _, _ in procedures:
                key = (dgp.id, n, label)
                picked = outcome[label]
                if isinstance(picked, str):  # the failure's exception name
                    failures[key] += 1
                    cell = reasons[key]
                else:
                    cell = rows[key]
                cell[picked] = cell.get(picked, 0) + 1
    return FrequencyTable(rows=rows, replications=R, failures=failures,
                          failure_reasons=reasons)


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
    n : int
        Estimation sample length.
    R : int
        Number of replications.
    seed : int
        Master seed (a single innovation stream is consumed in fixed
        blocks, so results depend only on seed and R).
    """
    k, h, method = int(spec.k), int(spec.h), spec.method
    if method not in (PLUG_IN, DIRECT):
        raise ValueError("method must be %r or %r" % (PLUG_IN, DIRECT))
    if method == PLUG_IN:
        if n < 2 * k:
            raise SeriesTooShort("plug-in fit needs n >= 2k")
    elif n - h < 2 * k - 1:
        raise SeriesTooShort("direct fit needs n - h >= 2k - 1")
    if R < 2:
        raise ValueError("R must be at least 2")
    _check_levels(dgp)
    levels = np.asarray(dgp.levels, dtype=float)
    w = impulse_response(levels, h - 1)
    sigma_h2 = float(dgp.sigma2 * np.dot(w, w))
    scale = math.sqrt(dgp.sigma2)
    rng = np.random.default_rng(int(seed))
    filt = np.concatenate(([1.0], -levels))
    lag = 1 if method == PLUG_IN else h  # the fit regresses x_{j+lag}
    block_sums = []
    done = 0
    while done < R:
        b = min(_MSPE_BATCH, R - done)
        eps = rng.standard_normal((b, n + h)) * scale
        x = lfilter([1.0], filt, eps, axis=1)
        windows = sliding_window_view(x[:, :n], k, axis=1)[:, :, ::-1]
        design = windows[:, :n - lag - k + 1, :]
        target = x[:, k + lag - 1:n]
        gram = np.einsum("bjk,bjl->bkl", design, design)
        cross = np.einsum("bjk,bj->bk", design, target)
        coeffs = _gated_solve(gram, cross, lambda j: (
            "singular design in replication %d" % (done + j)))
        if method == PLUG_IN:
            coeffs = _plug_in_powers(coeffs, h)
        tails = windows[:, n - k, :]
        err = np.einsum("bk,bk->b", coeffs, tails) - x[:, n + h - 1]
        eta = eps[:, n + h - 1 - np.arange(h)] @ w
        u = err + eta
        err2, u2 = err * err, u * u
        block_sums.append(row_sums([err2, err2 * err2, u2, u2 * u2]).tolist())
        done += b
    mean_err2, mean_err4, mean_u2, mean_u4 = (math.fsum(sums) / R
                                              for sums in zip(*block_sums))
    var_err2 = max(mean_err4 - mean_err2 ** 2, 0.0)
    var_u2 = max(mean_u4 - mean_u2 ** 2, 0.0)
    return MspeEstimate(
        mspe=mean_err2,
        se=math.sqrt(var_err2 / R),
        scaled_excess=n * mean_u2,
        scaled_excess_se=n * math.sqrt(var_u2 / R),
        replications=int(R),
        sigma_h2=sigma_h2)

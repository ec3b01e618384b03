"""The four benchmark workloads: inputs from a seed, operations, checks.

Each workload is a list of cases.  A case is one fixed input of a size
class ("small" or "large") together with the arstep call the benchmark
times on it and a ``summary`` that turns the call's result into plain
JSON data for the correctness checks.  Series inputs come from
``generate(dgp, n, replication_seed(seed, dgp, n, r))``, so arstep
receives only the generated data.

Why these workloads (each one moves layers the others leave alone):

* ``criterion``: penalized-criteria selection, the path of ``arstep
  select`` and of every frequency table; residual sums, lag matrices and
  per-fit ``eigh``.
* ``ape``: sequential-prediction-error selection on the unit-root
  generators; batched ``eigvalsh`` gates, batched solves and Gram
  prefix sums.
* ``montecarlo``: frequency-table cells (many small series per call)
  and ``estimate_mspe`` on 4096 replications in one vectorised block,
  the only workload with real memory pressure.
* ``theory``: loss tables and best combinations, the only path into
  ``theory_losses`` and the MA / autocovariance algebra of
  ``model_core``; it never touches ``estimation``.
"""

import math
import random
from dataclasses import asdict, dataclass

import arstep as ar

#: Seed whose outputs are stored under reference/.
DEFAULT_SEED = 0

#: Relative tolerance of float outputs against the stored reference.
REL_TOL = 1e-10

#: Replications of the small montecarlo class (one frequency cell).
CELL_REPS = 10

#: Replications of the large montecarlo class (one estimate_mspe block).
MSPE_REPS = 4096


@dataclass
class Case:
    """One timed input: size class, label, the call and its summary."""

    cls: str
    label: str
    call: object
    summary: object


@dataclass
class Workload:
    """Cases plus the checks that apply to their summaries.

    ``check`` returns the invariant violations of one summary.
    ``seeded`` says whether outputs depend on the seed (the stored
    reference then applies to DEFAULT_SEED only).  ``prelude`` runs once,
    untimed, and returns (summary data compared with the reference,
    problems found).
    """

    name: str
    cases: list
    check: object
    seeded: bool = True
    prelude: object = None

    def problems(self, case, summary, reference):
        """Invariant violations of one case's summary, and a mismatch
        with the stored reference when one applies."""
        found = self.check(summary)
        if reference is not None \
                and not same(reference["cases"].get(case.label), summary):
            found.append("output differs from the stored reference")
        return found

    def run_prelude(self, reference):
        """Run the untimed prelude; return the problems it found."""
        if self.prelude is None:
            return []
        data, found = self.prelude()
        if reference is not None and not same(reference["prelude"], data):
            found.append("prelude output differs from the stored reference")
        return found


def _series(seed, dgp_id, n, r):
    dgp = ar.DGPS[dgp_id]
    return ar.generate(dgp, n, ar.replication_seed(seed, dgp, n, r))


def _argmin(values):
    """Smallest key among the minimisers of a {order: value} dict."""
    return min(sorted(values), key=values.__getitem__)


# -- selection (criterion, ape) ------------------------------------------


def selection_summary(outcome):
    return {
        "k": outcome.k, "method": outcome.method, "m_h": outcome.m_h,
        "orders": dict(sorted(outcome.orders.items())),
        "first_stage": [[k, v] for k, v in sorted(outcome.first_stage.items())],
        "criteria": [[k, m, v] for (k, m), v in sorted(outcome.criteria.items())],
    }


def check_selection(s):
    """The pick must follow from the outcome's own criteria table.

    Tie rules: each argmin takes the smallest order, the plug-in search
    starts at the first-stage order, and plug-in wins only when strictly
    better than direct.
    """
    values = [v for _, v in s["first_stage"]] + [v for *_, v in s["criteria"]]
    if not values or not all(math.isfinite(v) for v in values):
        return ["non-finite or missing criterion value"]
    k_first = _argmin(dict(s["first_stage"]))
    direct = {k: v for k, m, v in s["criteria"] if m == ar.DIRECT}
    plug = {k: v for k, m, v in s["criteria"]
            if m == ar.PLUG_IN and k >= k_first}
    if not direct or not plug:
        return ["criteria table lacks a direct or plug-in candidate"]
    k_direct, k_plug = _argmin(direct), _argmin(plug)
    if direct[k_direct] > plug[k_plug]:
        want = [k_plug, ar.PLUG_IN]
    else:
        want = [k_direct, ar.DIRECT]
    problems = []
    if [s["k"], s["method"]] != want:
        problems.append("picked %r, criteria give %r"
                        % ([s["k"], s["method"]], want))
    orders = {"direct": k_direct, "first_stage": k_first, "plug_in": k_plug}
    if s["orders"] != orders:
        problems.append("recorded argmins %r, criteria give %r"
                        % (s["orders"], orders))
    return problems


def criterion_workload(seed):
    """select_by_criterion, preset B, all ten generators at their (h, K)."""
    penalty = ar.PENALTY_PRESETS["B"]
    cases = []
    for cls, n in (("small", 300), ("large", 2000)):
        for dgp_id, dgp in ar.DGPS.items():
            for r in range(3):
                x = _series(seed, dgp_id, n, r)
                cases.append(Case(
                    cls, "%s n=%d r=%d" % (dgp_id, n, r),
                    lambda x=x, dgp=dgp: ar.select_by_criterion(
                        x, dgp.horizon, dgp.max_order, penalty),
                    selection_summary))
    return Workload("criterion", cases, check_selection)


def ape_workload(seed):
    """select_by_ape on the unit-root generators III, VII, IX, X."""
    cases = []
    for cls, n in (("small", 300), ("large", 1000)):
        for dgp_id in ("III", "VII", "IX", "X"):
            dgp = ar.DGPS[dgp_id]
            x = _series(seed, dgp_id, n, 0)
            cases.append(Case(
                cls, "%s n=%d" % (dgp_id, n),
                lambda x=x, dgp=dgp: ar.select_by_ape(x, dgp.horizon,
                                                      dgp.max_order),
                selection_summary))
    return Workload("ape", cases, check_selection)


# -- montecarlo -----------------------------------------------------------


def frequency_summary(table):
    cells = []
    for (dgp_id, n, label), cell in sorted(table.rows.items()):
        cells.append({
            "dgp": dgp_id, "n": n, "procedure": label,
            "counts": [[k, m, c] for (k, m), c in sorted(cell.items())],
            "failures": table.failures.get((dgp_id, n, label), 0)})
    return {"replications": table.replications, "cells": cells}


def check_montecarlo(s):
    """Counts plus failures equal R; MSPE fields finite and in range."""
    if "cells" in s:
        return ["%s n=%d: counts plus failures %d != R=%d"
                % (c["dgp"], c["n"], sum(x[2] for x in c["counts"])
                   + c["failures"], s["replications"])
                for c in s["cells"]
                if sum(x[2] for x in c["counts"]) + c["failures"]
                != s["replications"]]
    problems = ["%s is not finite" % key for key, v in s.items()
                if not math.isfinite(v)]
    if s["replications"] != MSPE_REPS:
        problems.append("replications %r != %d"
                        % (s["replications"], MSPE_REPS))
    if min(s["se"], s["scaled_excess_se"], s["mspe"]) < 0 \
            or s["sigma_h2"] <= 0:
        problems.append("negative MSPE, standard error or sigma_h^2")
    return problems


def _mspe_case(seed, dgp_id, n, k, method, h):
    dgp = ar.DGPS[dgp_id]
    spec = ar.PredictorSpec(k, method, h)
    return Case("large", "mspe %s n=%d k=%d %s h=%d" % (dgp_id, n, k,
                                                         method, h),
                lambda: ar.estimate_mspe(dgp, spec, n, MSPE_REPS, seed),
                asdict)


def montecarlo_workload(seed):
    """Frequency cells (small) and vectorised MSPE blocks (large)."""
    cases = [Case("small", "cell %s n=1000 R=%d" % (dgp_id, CELL_REPS),
                  lambda dgp_id=dgp_id: ar.run_frequency_experiment(
                      [dgp_id], [1000], ("B",), R=CELL_REPS, seed=seed),
                  frequency_summary)
             for dgp_id in ("III", "IX")]
    cases.append(_mspe_case(seed, "X", 2000, 2, ar.DIRECT, 10))
    cases.append(_mspe_case(seed, "VII", 1000, 4, ar.PLUG_IN, 3))

    def determinism():
        """README contract: tables equal for any worker count; repeated
        estimate_mspe calls with one seed are equal."""
        problems = []
        args = (["III"], [1000], ("B",))
        serial = ar.run_frequency_experiment(*args, R=CELL_REPS, seed=seed)
        pooled = ar.run_frequency_experiment(*args, R=CELL_REPS, seed=seed,
                                             workers=2)
        if frequency_summary(serial) != frequency_summary(pooled):
            problems.append("frequency cell differs between serial and "
                            "workers=2")
        spec = ar.PredictorSpec(4, ar.PLUG_IN, 3)
        first, again = (ar.estimate_mspe(ar.DGPS["VII"], spec, 1000, 256,
                                         seed) for _ in range(2))
        if first != again:
            problems.append("estimate_mspe differs between two calls")
        return {}, problems

    return Workload("montecarlo", cases, check_montecarlo,
                    prelude=determinism)


# -- theory ---------------------------------------------------------------


def _theory_inputs():
    """(size class, generator id, h, K) of every best_combinations case."""
    out = []
    for dgp_id, dgp in ar.DGPS.items():
        large = dgp_id in ("IX", "X")
        for h in range(1, dgp.horizon + 1):
            out.append(("large" if large else "small", dgp_id, h,
                        20 if large else 10))
    return out


def check_theory(s):
    if isinstance(s, float):
        return [] if math.isfinite(s) else ["non-finite cost gap"]
    return [] if s else ["empty best_combinations"]


def theory_workload(seed):
    """best_combinations per generator and horizon, plus cost gaps.

    Outputs do not depend on the seed, so the stored reference applies
    to every seed; the seed only shuffles the order of the cases.
    """
    cases = []
    for cls, dgp_id, h, K in _theory_inputs():
        dgp = ar.DGPS[dgp_id]
        cases.append(Case(
            cls, "best %s h=%d K=%d" % (dgp_id, h, K),
            lambda dgp=dgp, h=h, K=K: ar.best_combinations(
                ar.model_for(dgp), h, K),
            lambda best: sorted([k, m] for k, m in best)))
    for i in range(1, 10):
        a1 = i / 10
        cases.append(Case("small", "gap a1=%.1f" % a1,
                          lambda a1=a1: ar.minimal_order_cost_gap(a1),
                          float))
    random.Random(seed).shuffle(cases)

    def loss_tables():
        """Loss values of every case's table, checked against its best set."""
        tables, problems = {}, []
        for _, dgp_id, h, K in _theory_inputs():
            model = ar.model_for(ar.DGPS[dgp_id])
            table = ar.loss_table(model, h, K)
            values = {key: entry.value for key, entry in table.items()}
            finite = [v for v in values.values() if math.isfinite(v)]
            label = "%s h=%d K=%d" % (dgp_id, h, K)
            if any(v != math.inf for v in values.values()
                   if not math.isfinite(v)) or not finite:
                problems.append("%s: loss is NaN, -inf or never finite"
                                % label)
                continue
            floor = min(finite)
            slack = ar.theory_losses.TIE_REL_TOL * max(1.0, abs(floor))
            best = {key for key, v in values.items() if v <= floor + slack}
            if best != ar.best_combinations(model, h, K):
                problems.append("%s: best set disagrees with loss table"
                                % label)
            tables[label] = [[k, m, v] for (k, m), v in sorted(values.items())]
        return {"loss_tables": tables}, problems

    return Workload("theory", cases, check_theory, seeded=False,
                    prelude=loss_tables)


WORKLOADS = {
    "criterion": criterion_workload,
    "ape": ape_workload,
    "montecarlo": montecarlo_workload,
    "theory": theory_workload,
}


def same(want, got):
    """Reference comparison: discrete values exact, floats to REL_TOL."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(want, (int, float)) or isinstance(want, bool) \
                or not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        return want == got or math.isclose(want, got, rel_tol=REL_TOL,
                                           abs_tol=0.0)
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(same(want[k], got[k])
                                                 for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(same(a, b)
                                             for a, b in zip(want, got))
    return type(want) is type(got) and want == got

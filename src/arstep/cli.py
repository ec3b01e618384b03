"""Command-line interface.

Four subcommands:

* ``theory``    — asymptotic quantities of a model: minimal orders, MA
                  weights, h-step innovation variance, the loss table
                  over candidate orders, and the loss-minimizing set.
* ``select``    — run a selection procedure on an observed series.
* ``forecast``  — fit and forecast a series with a fixed (k, method).
* ``simulate``  — Monte Carlo frequency tables or MSPE estimates.

Output goes to stdout (or --out FILE) as text, CSV, or JSON lines.
Failures print a one-line JSON error record to stderr; bad input exits
with status 2, numerical rank failures with status 3.
"""

import argparse
import csv
import importlib.metadata
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import INPUT_ERRORS, NUMERICAL_ERRORS, NotUnitRoot
from .estimation import fit_direct, fit_one_step, plug_in_multi
from .model_core import (DIRECT, PLUG_IN, StationaryArModel, UnitRootArModel,
                         ar_coefficients, direct_coefficients,
                         level_ma_weights, sigma_h_squared)
from .prediction import PredictorSpec, predict
from .selection import (PENALTY_PRESETS, PenaltyWeight, select_by_ape,
                        select_by_criterion)
from .simulation import (DGPS, estimate_mspe, model_for,
                         run_frequency_experiment)
from .theory_losses import _best, loss_table


def _plain(value):
    """Make a value JSON- and CSV-friendly (numpy scalars, inf, nests)."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _fmt(value):
    """Compact text rendering of one numeric value."""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.6g" % value
    return str(value)


def _versions():
    """Versions of arstep, numpy and scipy; scipy's is read from its
    installed metadata, so that scipy is not imported (None if absent)."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"arstep": __version__, "numpy": np.__version__,
            "scipy": scipy_version}


def _emit(args, meta, records, text_fn):
    """Write the command result in the requested format, with the
    versions that produced it added to meta."""
    meta = dict(meta, versions=_versions())
    stream = open(args.out, "w") if getattr(args, "out", None) \
        else sys.stdout
    try:
        if args.format == "text":
            text = text_fn()
            stream.write(text if text.endswith("\n") else text + "\n")
        elif args.format == "csv":
            for key in meta:
                stream.write("# %s=%s\n" % (key, json.dumps(_plain(meta[key]))))
            if records:
                writer = csv.DictWriter(stream,
                                        fieldnames=list(records[0].keys()))
                writer.writeheader()
                for record in records:
                    writer.writerow({k: _plain(v) for k, v in record.items()})
        else:
            stream.write(json.dumps({"meta": _plain(meta)}) + "\n")
            for record in records:
                stream.write(json.dumps(_plain(record)) + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def _read_series(path):
    """Load a numeric series from a single-column CSV (header optional)."""
    values = []
    saw_data = False
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            token = line.split(",")[0].strip()
            try:
                values.append(float(token))
            except ValueError:
                if saw_data or values:
                    raise ValueError(
                        "%s:%d: non-numeric value %r" % (path, line_no,
                                                         token)) from None
                # First non-blank line may be a header; skip it once.
            saw_data = True
    if not values:
        raise ValueError("%s holds no numeric data" % path)
    return np.asarray(values, dtype=float)


def _read_model_file(path):
    """Parse a 'key = value' model file with keys levels and sigma2."""
    levels = None
    sigma2 = 1.0
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected 'key = value'"
                                 % (path, line_no))
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key == "levels":
                levels = tuple(float(tok)
                               for tok in value.replace(",", " ").split())
            elif key == "sigma2":
                sigma2 = float(value)
            else:
                raise ValueError("%s:%d: unknown key %r"
                                 % (path, line_no, key))
    if levels is None or not levels:
        raise ValueError("%s must set 'levels'" % path)
    return levels, sigma2


def _build_model(levels, sigma2):
    """Classify the levels polynomial and build the matching model.

    The polynomial counts as having a unit root when deflate_unit_root
    accepts A(1) as zero; otherwise it must be stable outright.
    """
    try:
        return UnitRootArModel(levels, sigma2), "unit-root"
    except NotUnitRoot:
        return StationaryArModel(levels, sigma2), "stationary"


def _cmd_theory(args):
    if args.dgp:
        dgp = DGPS[args.dgp]
        model = model_for(dgp)
        kind = "unit-root" if dgp.unit_root else "stationary"
        h = args.h if args.h is not None else dgp.horizon
        K = args.K if args.K is not None else dgp.max_order
        source = "dgp:%s" % dgp.id
    else:
        if args.h is None or args.K is None:
            raise ValueError("--h and --K are required with --model")
        levels, sigma2 = _read_model_file(args.model)
        model, kind = _build_model(levels, sigma2)
        h, K = args.h, args.K
        source = args.model
    levels = ar_coefficients(model)[0]
    p1 = len(levels)
    p_h = direct_coefficients(model, h).p_h
    weights = level_ma_weights(model, h - 1)
    sig_h2 = sigma_h_squared(model, h)
    table = loss_table(model, h, K)
    best = sorted(_best(table, K))
    meta = {"source": source, "model": kind, "levels": list(levels),
            "sigma2": model.sigma2, "h": h, "K": K, "p1": p1, "p_h": p_h,
            "ma_weights": list(weights), "sigma_h2": sig_h2,
            "best": [list(pair) for pair in best]}
    records = [{"k": k, "method": method, "loss": table[(k, method)].value,
                "best": (k, method) in best}
               for k in range(1, K + 1) for method in (PLUG_IN, DIRECT)]

    def text():
        lines = ["model: %s  levels=(%s)  sigma2=%s"
                 % (kind, ", ".join("%g" % a for a in levels),
                    _fmt(model.sigma2)),
                 "horizon h=%d, candidate orders 1..%d" % (h, K),
                 "minimal orders: one-step=%d, %d-step direct=%d"
                 % (p1, h, p_h),
                 "ma weights w_0..w_%d: %s"
                 % (h - 1, " ".join(_fmt(float(w)) for w in weights)),
                 "sigma_h^2 = %s" % _fmt(sig_h2),
                 "",
                 "  k  %-12s %-12s" % (PLUG_IN, DIRECT)]
        for k in range(1, K + 1):
            lines.append("%3d  %-12s %-12s"
                         % (k, _fmt(table[(k, PLUG_IN)].value),
                            _fmt(table[(k, DIRECT)].value)))
        lines.append("")
        lines.append("minimal loss at: "
                     + "; ".join("(k=%d, %s)" % pair for pair in best))
        return "\n".join(lines)

    return _emit(args, meta, records, text)


def _cmd_select(args):
    series = _read_series(args.input)
    if args.procedure == "I":
        outcome = select_by_ape(series, args.h, args.K)
        label = "I"
    else:
        if args.cn_multiplier is not None:
            penalty = PenaltyWeight(args.cn_multiplier)
            label = "II(C_n=%g*log(n)/n)" % args.cn_multiplier
        else:
            penalty = PENALTY_PRESETS[args.cn]
            label = "II(%s)" % args.cn
        outcome = select_by_criterion(series, args.h, args.K, penalty)
    meta = {"input": args.input, "n": int(series.size),
            "procedure": label, "h": args.h, "K": args.K,
            "selected_k": outcome.k, "selected_method": outcome.method,
            "orders": outcome.orders}
    if outcome.m_h is not None:
        meta["m_h"] = outcome.m_h
    records = [{"stage": "final", "k": k, "method": method, "value": value}
               for (k, method), value in sorted(outcome.criteria.items())]
    records.extend({"stage": "first", "k": k, "method": DIRECT,
                    "value": value}
                   for k, value in sorted(outcome.first_stage.items()))

    def text():
        lines = ["selected: k=%d, method=%s" % (outcome.k, outcome.method),
                 "procedure %s on %s (n=%d), h=%d, K=%d"
                 % (label, args.input, series.size, args.h, args.K),
                 "intermediate orders: " + ", ".join(
                     "%s=%d" % item for item in outcome.orders.items())]
        if outcome.m_h is not None:
            lines.append("sequential sums start at i=%d" % outcome.m_h)
        lines.append("")
        lines.append("candidate values (h=%d):" % args.h)
        for (k, method), value in sorted(outcome.criteria.items()):
            mark = " <-- selected" if (k, method) == (outcome.k,
                                                      outcome.method) else ""
            lines.append("  k=%-3d %-8s %s%s" % (k, method, _fmt(value),
                                                 mark))
        lines.append("first stage (one-step direct):")
        for k, value in sorted(outcome.first_stage.items()):
            lines.append("  k=%-3d %s" % (k, _fmt(value)))
        return "\n".join(lines)

    return _emit(args, meta, records, text)


def _cmd_forecast(args):
    series = _read_series(args.input)
    methods = [args.method] if args.method else [PLUG_IN, DIRECT]
    records = []
    for method in methods:
        if method == PLUG_IN:
            coeffs = plug_in_multi(fit_one_step(series, args.k), args.h)
        else:
            coeffs = fit_direct(series, args.k, args.h)
        forecast = predict(series, coeffs)
        records.append({"method": method, "k": args.k, "h": args.h,
                        "origin": forecast.origin,
                        "forecast": forecast.value})
    meta = {"input": args.input, "n": int(series.size), "k": args.k,
            "h": args.h}

    def text():
        lines = ["forecast of x_{n+%d} from %s (n=%d), k=%d:"
                 % (args.h, args.input, series.size, args.k)]
        for record in records:
            lines.append("  %-8s %s" % (record["method"],
                                        _fmt(record["forecast"])))
        return "\n".join(lines)

    return _emit(args, meta, records, text)


def _procedure_labels(args):
    labels = []
    for proc in args.procedure:
        if proc == "I":
            labels.append("I")
        else:
            labels.extend(args.cn)
    # preserve order, drop duplicates
    return tuple(dict.fromkeys(labels))


def _cmd_simulate(args):
    if args.mode == "frequency":
        dgp_labels = list(DGPS) if "all" in args.dgp else args.dgp
        procedures = _procedure_labels(args)
        table = run_frequency_experiment(
            dgp_labels, args.n, procedures, R=args.reps, K=args.K,
            seed=args.seed, workers=args.workers)
        meta = {"mode": "frequency", "dgps": dgp_labels, "n": args.n,
                "procedures": list(procedures), "replications": args.reps,
                "seed": args.seed}
        return _emit(args, meta, table.to_records(), table.format_text)
    if len(args.dgp) != 1 or "all" in args.dgp:
        raise ValueError("mspe mode needs exactly one --dgp label")
    if args.k is None or args.method is None:
        raise ValueError("mspe mode needs --k and --method")
    dgp = DGPS[args.dgp[0]]
    h = args.h if args.h is not None else dgp.horizon
    spec = PredictorSpec(k=args.k, method=args.method, h=h)
    records = []
    for n in args.n:
        est = estimate_mspe(dgp, spec, n, args.reps, seed=args.seed)
        records.append({"dgp": dgp.id, "n": n, "k": args.k,
                        "method": args.method, "h": h,
                        "replications": est.replications,
                        "mspe": est.mspe, "se": est.se,
                        "scaled_excess": est.scaled_excess,
                        "scaled_excess_se": est.scaled_excess_se,
                        "sigma_h2": est.sigma_h2})
    meta = {"mode": "mspe", "dgp": dgp.id, "k": args.k,
            "method": args.method, "h": h, "replications": args.reps,
            "seed": args.seed}

    def text():
        lines = ["MSPE of (k=%d, %s) at h=%d on DGP %s, %d replications"
                 % (args.k, args.method, h, dgp.id, args.reps)]
        for rec in records:
            lines.append(
                "  n=%-6d mspe=%s (se %s)  n*(mspe - sigma_h^2)=%s "
                "(se %s)  sigma_h^2=%s"
                % (rec["n"], _fmt(rec["mspe"]), _fmt(rec["se"]),
                   _fmt(rec["scaled_excess"]),
                   _fmt(rec["scaled_excess_se"]), _fmt(rec["sigma_h2"])))
        return "\n".join(lines)

    return _emit(args, meta, records, text)


def _add_output_flags(parser):
    parser.add_argument("--format", choices=("text", "csv", "jsonl"),
                        default="text")
    parser.add_argument("--out", help="write to FILE instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arstep",
        description="Multistep prediction for autoregressions with a "
                    "unit root: theoretical losses, order/method "
                    "selection, forecasting, and Monte Carlo tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser(
        "theory", help="asymptotic losses and minimal orders of a model")
    source = theory.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="key-value model file "
                                        "(levels = ..., sigma2 = ...)")
    source.add_argument("--dgp", choices=list(DGPS),
                        help="use a built-in generator instead of --model")
    theory.add_argument("--h", type=int, default=None)
    theory.add_argument("--K", type=int, default=None)
    _add_output_flags(theory)

    select = sub.add_parser(
        "select", help="choose order and method for an observed series")
    select.add_argument("--input", required=True,
                        help="single-column CSV of observations")
    select.add_argument("--h", type=int, required=True)
    select.add_argument("--K", type=int, required=True)
    select.add_argument("--procedure", choices=("I", "II"), default="II")
    select.add_argument("--cn", choices=tuple(PENALTY_PRESETS),
                        default="B", help="penalty preset for procedure II")
    select.add_argument("--cn-multiplier", type=float, default=None,
                        help="custom multiplier x in C_n = x*log(n)/n")
    _add_output_flags(select)

    forecast = sub.add_parser(
        "forecast", help="fit a fixed candidate and forecast x_{n+h}")
    forecast.add_argument("--input", required=True)
    forecast.add_argument("--h", type=int, required=True)
    forecast.add_argument("--k", type=int, required=True)
    forecast.add_argument("--method", choices=(PLUG_IN, DIRECT),
                          default=None,
                          help="default: report both methods")
    _add_output_flags(forecast)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo frequency tables or MSPE estimates")
    simulate.add_argument("--mode", choices=("frequency", "mspe"),
                          default="frequency")
    simulate.add_argument("--dgp", nargs="+", default=["all"],
                          choices=list(DGPS) + ["all"])
    simulate.add_argument("--n", nargs="+", type=int, required=True)
    simulate.add_argument("--procedure", nargs="+", choices=("I", "II"),
                          default=["II"])
    simulate.add_argument("--cn", nargs="+", choices=tuple(PENALTY_PRESETS),
                          default=["B"])
    simulate.add_argument("--reps", type=int, default=200)
    simulate.add_argument("--K", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--workers", type=int, default=None)
    simulate.add_argument("--k", type=int, default=None,
                          help="predictor order (mspe mode)")
    simulate.add_argument("--method", choices=(PLUG_IN, DIRECT),
                          default=None, help="predictor method (mspe mode)")
    simulate.add_argument("--h", type=int, default=None,
                          help="horizon override (mspe mode)")
    _add_output_flags(simulate)

    return parser


_COMMANDS = {"theory": _cmd_theory, "select": _cmd_select,
             "forecast": _cmd_forecast, "simulate": _cmd_simulate}


def _error_record(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(record) + "\n")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        _error_record(exc)
        return 3
    except INPUT_ERRORS as exc:
        _error_record(exc)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        _error_record(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
